(** Failover: surviving remote-node loss without the disk penalty.

    The robustness harness for {!Tier.Fleet}. A mixed fleet of six
    domains pages over the same disk — three disk-only bystanders and
    three tiered over a 4-node replicated fleet (R = 2), one of each
    per access pattern. Mid-run the chaos plan takes one node's
    memory away for good ([node_wipe] at T/3) and another node off
    the network for a window ([node_partition] over [T/2, 2T/3]).

    The experiment passes when node loss stays a latency event, never
    a safety one: zero committed pages lost (every fault is served by
    a surviving replica, a rebuilt copy or the disk floor), zero
    bystander QoS violations, the fleet's double-entry books balance
    ([stores = acks], the packet ledger, and [lost_primaries =
    failovers + rebuilds + disk_fallbacks]), the wiped node is re-replicated (rebuilds > 0),
    the partitioned node is quarantined and probed back in, and a
    second same-seed run reproduces the report byte-for-byte. *)

open Engine

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  health : Tier.Fleet.node_health list;
  books_balanced : bool;
  store_totals : Tier.Fleet.store_stats;
      (** per-domain store counters summed across the tiered domains *)
  lost_slots : int;  (** committed pages lost across the tiered domains *)
  node_wipes : int;  (** per the {!Inject} tally *)
  node_partitions : int;
  bystander_violations : int;  (** disk-only domains; must be 0 *)
  tiered_violations : int;
  deterministic : bool;  (** second same-seed run matched byte-for-byte *)
  audit : Obs.Qos_audit.summary;
}

val run : ?seed:int -> ?duration:Time.span -> unit -> result
val ok : result -> bool
val print : result -> unit
val to_json : result -> string

(** One cell of the failover benchmark: the hotspot workload against
    one backend, with the fault-latency histogram split at T/2 so the
    post-wipe window can be compared against the same window of a
    healthy run. *)
type bench_cell = {
  bc_name : string;  (** ["disk"], ["fleet"], ["fleet_wipe"] *)
  bc_accesses : int;
  bc_mean_us : float;  (** whole-run mean fault latency *)
  bc_half2_mean_us : float;  (** second-half window (post-wipe if wiped) *)
  bc_fleet_hits : int;
  bc_failovers : int;
  bc_rebuilds : int;
  bc_nodes : Tier.Fleet.node_health list;
      (** per-node end-of-run gauges (stores/serves/failovers) *)
}

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : bench_cell list;
  b_healthy_us : float;  (** fleet cell, second-half window *)
  b_postwipe_us : float;  (** fleet_wipe cell, post-wipe window *)
  b_disk_us : float;  (** disk cell, second-half window *)
  b_degradation : float;  (** postwipe / healthy *)
  b_ok : bool;
      (** post-wipe mean ≤ 2× the healthy remote path and at least
          5× below the disk path — no disk-fallback cliff *)
}

val bench : ?seed:int -> ?duration:Time.span -> unit -> bench_result
val bench_print : bench_result -> unit
val bench_to_json : bench_result -> string
