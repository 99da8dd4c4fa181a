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

val bench_domain :
  System.t -> ?guarantee:int -> ?optimistic:int -> name:string -> unit ->
  System.domain
(** A domain with a generous CPU contract for micro-benchmarks; raises
    on admission failure. *)

val mean_span : Time.span list -> float
(** Mean in microseconds. *)

val pattern : experiment:string -> string -> Workload.Paging_app.pattern
(** Resolve a workload-pattern name through the registry
    ({!Workload.Paging_app.pattern_axis}), aborting the experiment
    with a did-you-mean hint on an unknown name — the one resolution
    route every experiment's pattern table shares. *)

val backing :
  experiment:string -> string -> Tier.Backing.ctx ->
  Usbs.Sfs.swapfile -> Tier.Backing.t
(** Resolve a backing spec (["tiered:cache-pages=24"], ["zram"], ...)
    through {!Tier.Backing.axis} into the [swapfile -> Backing.t]
    shape [Paging_app.start ?backing] takes, aborting the experiment
    on an unknown name or a missing capability. *)

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

    {!Remote_page}, {!Failover} and {!Erasure} share one shape: three
    disk-only bystanders beside three tiered domains, one of each per
    access pattern (sequential, random, hotspot), all paging over the
    same disk. *)

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

val patterns :
  experiment:string -> (string * Workload.Paging_app.pattern) list
(** [seq], [rand] and [hot], resolved through {!pattern}. *)

val fault_hist : string -> float * float
(** Mean and p95 of the named domain's fault-service latency, µs;
    [(nan, nan)] before its first fault. *)

val start_app :
  experiment:string -> System.t -> name:string ->
  pattern:Workload.Paging_app.pattern ->
  ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) -> unit ->
  Workload.Paging_app.t
(** One paging-in domain: 1 MiB of VM over 8 frames and a 4 MiB
    swapfile under a 35 ms / 250 ms disk guarantee (six of them leave
    admission room). Aborts the experiment on a refusal. *)

val start_domains :
  experiment:string -> System.t -> tiered_prefix:string ->
  backing:(string -> Usbs.Sfs.swapfile -> Tier.Backing.t) ->
  (string * string * bool * Workload.Paging_app.t) list
(** Start the three bystanders ["disk_<pattern>"], then the three
    tiered domains ["<tiered_prefix><pattern>"], each built over
    [backing name] just before it starts. Returns
    [(name, pattern, tiered, app)] in start order. *)

val fleet :
  System.t -> seed:int -> params:Usnet.Net_params.t -> capacity:int ->
  ?redundancy:Tier.Fleet.redundancy -> ?standby:string list ->
  ?repair_period:Time.span -> ?repair_budget:int -> ?repair:bool ->
  string list ->
  Tier.Fleet.t * (string * Tier.Remote_node.t * Usnet.Link.t) list
(** A {!Tier.Fleet} over one remote memory node of [capacity] pages
    per name, each on its own [params] link named after it; the
    [standby] nodes are built the same way. The other options are
    {!Tier.Fleet.create}'s. Returns the fleet and its member
    [(name, node, link)] triples in order. *)

val fleet_backing :
  experiment:string -> ?context:(string * string) list -> Tier.Fleet.t ->
  client:string -> spec:string -> on_store:(Tier.Fleet.store -> unit) ->
  Usbs.Sfs.swapfile -> Tier.Backing.t
(** Admit one domain on every node link of the fleet under [client]
    (5 ms every 20 ms, slack-eligible, 2 ms laxity) and resolve the
    registered fleet backing [spec] (["fleet:…"] or ["tiered:…"])
    over those clients; [on_store] receives the attached store. *)

val domain_reports :
  (string * string * bool * Workload.Paging_app.t) list ->
  domain_report list
(** Read each domain's throughput, fault latency and QoS violations
    after a run. *)

val violations : tiered:bool -> domain_report list -> int
(** Violations summed over the tiered ([true]) or disk-only domains. *)

val store_json : Tier.Fleet.store_stats -> Json.t
(** Store counters as one JSON object. *)

val print_store_totals : Tier.Fleet.store_stats -> unit
(** Print the read and demote counters as one report line. *)

val mbit_s : float -> string
(** Throughput for a table cell, ["warming"] for [nan]. *)

val us : float -> string
(** Whole microseconds for a table cell, ["-"] for [nan]. *)

val domain_json : domain_report -> Json.t
(** A domain row as one JSON object. *)

val domain_table : tiered_label:string -> domain_report list -> unit
(** Print the domains as a table, naming the tiered backing
    [tiered_label]. *)

(** {1 The backing matrix}

    The backings this repo compares, each under one domain alone in a
    fresh system (2 MiB of main memory, fault-free): the disk
    and the one-node tier (fast ethernet, 128 pages,
    ["tiered:cache-pages=24"]) under each pattern, and a six-node
    gigabit fleet (420 pages per node, ["fleet:cache-pages=24"]) under
    the hotspot only, as [replicated] (R = 2), [replicated_wipe],
    [erasure] (k = 4, m = 2) and [erasure_wipe]. Every cell runs in
    two legs split at T/2; a [_wipe] cell's node n0 loses its
    contents between the legs, with repair off, so every read of a
    page n0 held takes the degraded path. *)

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
    cell took its degraded path (failovers for R = 2,
    reconstructions for erasure); erasure stores at most 1.55x and
    replicas at least 1.9x. *)

val print_matrix : matrix -> unit

val matrix_cell_json : matrix_cell -> Json.t
(** One cell as the JSON object {!matrix_json} lists under ["cells"]. *)

val matrix_json : matrix -> Json.t
