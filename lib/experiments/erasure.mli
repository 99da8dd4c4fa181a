(** Erasure: k-of-n stripes against whole-page replicas under double
    node loss, a checksum-lossy node and a live membership change.

    The robustness harness for {!Tier.Fleet}'s (k = 4, m = 2)
    stripes, run side by side with the [Replicated 2] baseline (the
    k = 1 stripe). Each cell pages three tiered domains (one per
    access pattern) through a six-node fleet beside three disk-only
    bystanders. Mid-run the chaos plan
    wipes two nodes ([n1] at T/3, [n2] at 0.45 T — exactly [m] losses
    for the (k = 4, m = 2) stripe), lets 2% of the shards served by
    [n3] fail their checksum, and joins a standby node at 0.6 T
    (rendezvous re-ranking migrates entries onto it, budgeted through
    the repair loop).

    The experiment passes when parity keeps double node loss a
    latency event at 1.5x storage instead of 2x: zero committed pages
    lost in either cell, erasure reads in the loss window served
    {e degraded} from remote memory at least 50x faster than the disk
    floor (the bystanders' pooled fault latency), storage overhead at
    most 1.55x and below the replicated cell's, the books balanced in
    both cells (the packet ledger and [lost_shards = reconstructions +
    rebuilds + disk_fallbacks] — [Replicated 2] is the k = 1 stripe,
    so one ledger covers both), corrupt serves detected, the join
    honoured with migrations, zero bystander violations, and a second
    same-seed run reproducing both cells byte-for-byte. *)

open Engine

(** One redundancy mode's full run: six domains, the fault plan, the
    drain, the books. *)
type cell = {
  c_name : string;  (** ["replicated"] or ["erasure"] *)
  c_mode : string;  (** ["R=2"] or ["k=4,m=2"] *)
  c_domains : Harness.domain_report list;
  c_fleet : Tier.Fleet.stats;
  c_health : Tier.Fleet.node_health list;
  c_books_balanced : bool;
  c_store_totals : Tier.Fleet.store_stats;
  c_lost_slots : int;  (** committed pages lost; must be 0 *)
  c_overhead : float;  (** {!Tier.Fleet.storage_overhead} at the end *)
  c_degraded_count : int;  (** degraded reads observed (erasure cell) *)
  c_degraded_mean_us : float;  (** their mean latency, [nan] if none *)
  c_disk_floor_us : float;
      (** the bystanders' pooled fault latency — the penalty a
          disk fallback would have paid *)
  c_bystander_violations : int;
  c_tiered_violations : int;
  c_audit : Obs.Qos_audit.summary;
}

type result = {
  seed : int;
  duration : Time.span;
  replicated : cell;
  erasure : cell;
  speedup : float;  (** erasure [disk_floor / degraded_mean] *)
  deterministic : bool;  (** second same-seed run matched byte-for-byte *)
}

val run : ?seed:int -> ?duration:Time.span -> unit -> result
val ok : result -> bool
val print : result -> unit
val to_json : result -> Json.t
