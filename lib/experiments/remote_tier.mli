(** The remote-tier experiments as constant scenarios: each is a fleet,
    a fault plan and a verdict that {!Harness.run_fleet} runs, checks,
    prints and reruns alike. *)

val remote : Harness.scenario
(** Remote paging: a disaggregated memory tier under QoS and link chaos.

    A mixed fleet pages over the same disk: three disk-only domains
    and three tiered domains (local RAM cache → remote memory node →
    disk), one of each per access pattern (sequential, random,
    hotspot). The tier is a one-node [Replicated 1] {!Tier.Fleet}
    attached under the label ["tier"]; the tiered domains' page
    transfers ride the node's {!Usnet.Link} under per-domain
    [(p, s, x, l)] guarantees. Halfway through, a seeded fault plan
    starts dropping and delaying packets on that link.

    The experiment passes when the chaos stays bought-and-paid-for:
    the disk-only bystanders see zero QoS violations, the fleet's
    double-entry books balance (its packet ledger included), the
    drops the fleet answered equal the drops the injector dealt,
    drops were actually injected, the tiered domains keep paging
    through the tier, and a second same-seed run reproduces the
    report byte-for-byte. *)

val failover : Harness.scenario
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

val erasure : Harness.scenario
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
