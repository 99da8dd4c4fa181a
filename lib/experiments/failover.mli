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
    bystander QoS violations, reads failed over to a surviving copy
    (degraded reads > 0: R = 2 is the k = 1 stripe), the fleet's
    double-entry books balance ([stores = acks], the packet ledger,
    and [lost_shards = reconstructions + rebuilds + disk_fallbacks]),
    the wiped node is re-replicated (rebuilds > 0), the partitioned
    node is quarantined and probed back in, and a second same-seed
    run reproduces the report byte-for-byte. *)

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
val to_json : result -> Json.t
