(** Shared experiment plumbing. *)

open Engine
open Core

val run_in_sim : System.t -> (unit -> 'a) -> 'a
(** Spawn [f] as a process in the system's simulator and drive the
    event loop until it returns. Fails if the simulation quiesces or
    exceeds its event budget first. *)

val fresh_system :
  ?page_table:[ `Linear | `Guarded ] -> ?usd_rollover:bool ->
  ?main_memory_mb:int -> ?seed:int -> unit -> System.t

val cell_system : seed:int -> System.t
(** A fresh 2 MiB system with {!Obs} reset and on and injection off:
    how every fleet cell, backing-matrix cell and [chaos] run starts. *)

val bench_domain :
  System.t -> ?guarantee:int -> ?optimistic:int -> name:string -> unit ->
  System.domain
(** A domain with a generous CPU contract for micro-benchmarks; raises
    on admission failure. *)

val mean_span : Time.span list -> float
(** Mean in microseconds. *)

val patterns : (string * Workload.Paging_app.pattern) list
(** The three built-in patterns in report order, each with its
    {!Workload.Paging_app.pattern_name}: [seq], [rand], [hot]. *)

val fail_verdict :
  experiment:string -> ?context:(string * string) list -> string -> 'a
(** Abort an experiment: print the experiment name, the message and
    each [(key, value)] context pair to stderr, then raise
    [Failure msg] — the message text is preserved verbatim, so
    call sites converted from bare [failwith] keep their legacy
    wording. *)

val violations_for : names:string list -> ids:int list -> int
(** QoS-audit violations attributable to a domain, by name (CPU/USD
    feeds label streams ["name"] / ["name.swap"]) or by domain id
    (frame-side feeds). *)

(** {1 The remote-tier experiments}

    [remote], [failover] and [erasure] ({!Remote_tier}) are one run
    over three constant {!scenario}s: three disk-only bystanders beside
    three tiered domains, one of each per access pattern (sequential,
    random, hotspot), all paging over the same disk, the tiered ones
    through a {!Tier.Fleet} under a seeded fault plan. *)

(** One domain's row in a remote-tier report. *)
type domain_report = {
  dr_name : string;
  dr_pattern : string;
  dr_tiered : bool;
  dr_mbit : float;  (** sustained throughput ([nan] if warming) *)
  dr_accesses : int;
  dr_fault_mean_us : float;  (** mean fault-service latency, [nan] if none *)
  dr_fault_p95_us : float;
  dr_violations : int;
}

(** One redundancy's run: its six domains, its fleet and its books. *)
type fleet_cell = {
  c_name : string;  (** ["tier"], ["replicated"], ["erasure"] *)
  c_mode : string;  (** ["R=1"], ["R=2"], ["k=4,m=2"] *)
  c_domains : domain_report list;
  c_fleet : Tier.Fleet.stats;
  c_nodes : Tier.Fleet.node_health list;  (** members, then standbys *)
  c_books_balanced : bool;  (** {!Tier.Fleet.books_balanced} *)
  c_stores : Tier.Fleet.store_stats;
      (** per-domain store counters summed across the tiered domains *)
  c_overhead : float;  (** {!Tier.Fleet.storage_overhead} at the end *)
  c_tally : Inject.tally;  (** what the injector dealt, per its own count *)
  c_disk_floor_us : float;
      (** the bystanders' pooled fault latency — the penalty a disk
          fallback would have paid *)
  c_degraded_mean_us : float;  (** mean degraded read, [nan] if none *)
  c_bystander_violations : int;  (** disk-only domains *)
  c_tiered_violations : int;
  c_audit : Obs.Qos_audit.summary;
}

(** Where a scenario's fault plan arms: before the first event, or at
    T/2 after a clean first half. *)
type arm = At_start | At_half

(** A remote-tier experiment as constant data. *)
type scenario = {
  sc_name : string;  (** the subcommand, named in aborts *)
  sc_title : string;  (** the report heading *)
  sc_faults : string;  (** the fault plan in words *)
  sc_params : Usnet.Net_params.t;  (** every node link's *)
  sc_nodes : string list;  (** the members, one node and link each *)
  sc_standby : string list;  (** nodes a plan may join *)
  sc_capacity : int;  (** pages per node *)
  sc_repair : (Time.span * int) option;
      (** repair period and budget; [None] keeps the fleet's *)
  sc_cells : (string * string * Tier.Fleet.redundancy) list;
      (** one cell per [(name, mode, redundancy)], in order *)
  sc_label : string;
      (** ["tier"] or ["fleet"]: the tiered domains' store label,
          backing column and name prefix (["<label>_<pattern>"]) *)
  sc_plan : seed:int -> duration:Time.span -> Inject.plan;
  sc_arm : arm;
  sc_ok : fleet_cell list -> bool;  (** the scenario's own verdict *)
  sc_verdict : string;  (** what an ok verdict says *)
}

type fleet_run = {
  fr_scenario : scenario;
  fr_seed : int;
  fr_duration : Time.span;
  fr_cells : fleet_cell list;
  fr_deterministic : bool;
      (** a second same-seed run of every cell printed the same JSON *)
}

val run_fleet : seed:int -> duration:Time.span -> scenario -> fleet_run
(** Run each cell in a fresh {!cell_system}: build the fleet, start
    the six domains, arm the plan, run to T, disarm, drain 2 s, read
    the books — then run every cell again for the same-seed check. *)

val degraded_speedup : fleet_cell -> float
(** [disk_floor / degraded_mean]; [nan] without degraded reads. *)

val fleet_ok : fleet_run -> bool
(** Every cell has zero bystander violations, zero committed pages
    lost and balanced books, the scenario's own verdict holds, and the
    rerun matched. *)

val fleet_run_json : fleet_run -> Json.t
(** [{seed, duration_s, cells, deterministic}], one object per cell. *)

val print_fleet_run : fleet_run -> unit
(** One section per cell, then the rerun and the verdict line. *)

(** {1 The backing matrix}

    The backings this repo compares, each under one domain alone in a
    fresh system (2 MiB of main memory, fault-free): the disk and the
    one-node tier (fast ethernet, 128 pages, store label ["tier"])
    under each pattern, and a six-node gigabit fleet (420 pages per
    node, store label ["fleet"]) under the hotspot only, as
    [replicated] (R = 2), [replicated_wipe], [erasure] (k = 4, m = 2)
    and [erasure_wipe]; each store has a 24-page RAM cache. Every
    cell runs in two legs split at T/2; a [_wipe] cell's node n0
    loses its contents between the legs, with repair off, so every
    read of a page n0 held takes the degraded path. *)

type matrix_cell = {
  mc_name : string;  (** ["disk_seq"] … ["tier_hot"], ["replicated"] … *)
  mc_pattern : string;
  mc_mbit : float;  (** sustained throughput ([nan] if warming) *)
  mc_accesses : int;
  mc_fault_mean_us : float;  (** whole-run mean fault latency *)
  mc_fault_p95_us : float;
  mc_half2_mean_us : float;  (** second-half window (post-wipe if wiped) *)
  mc_store : Tier.Fleet.store_stats;  (** all zero on the disk *)
  mc_fleet : Tier.Fleet.stats option;  (** [None] on the disk *)
  mc_nodes : Tier.Fleet.node_health list;  (** per-node end-of-run gauges *)
  mc_overhead : float;  (** {!Tier.Fleet.storage_overhead}, [nan] on the disk *)
}

type matrix = {
  m_seed : int;
  m_duration : Time.span;
  m_cells : matrix_cell list;  (** the ten cells, in the order above *)
}

val run_matrix : ?seed:int -> ?duration:Time.span -> unit -> matrix

val matrix_ok : matrix -> bool
(** The tier's hotspot mean fault latency beats the disk's; for each
    redundancy, the wipe cell's second-half mean is at most 2x the
    healthy cell's and at least 5x below the disk's, and the wipe
    cell took its degraded path (reconstructions > 0: at R = 2 each
    is a read served by the surviving copy); erasure stores at most
    1.55x and replicas at least 1.9x. *)

val print_matrix : matrix -> unit

val matrix_cell_json : matrix_cell -> Json.t
(** One cell as the JSON object {!matrix_json} lists under ["cells"]. *)

val matrix_json : matrix -> Json.t
