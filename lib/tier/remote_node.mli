(** A deterministic model of a remote memory node.

    The far end of the disaggregated-memory tier: a bounded pool of
    page-or-shard slots keyed by [(owner, slot, shard)], with a fixed
    per-entry service latency. The node itself is passive bookkeeping
    — {!Fleet} does the link transfers and sleeps the service time
    under the calling domain's own guarantees, so the node adds no
    hidden scheduling and two same-seed runs behave identically.

    {!Fleet} keys each entry by its stripe position [shard]: a page's
    [k + m] Reed–Solomon shards (whole-page copies at [k = 1]) are
    distinct entries, so one node may hold two positions of a stripe
    while rebalancing moves them. Each entry occupies one slot but
    holds only [1/k] of the page's bytes — capacity here counts
    {e entries}, the byte overhead is the caller's to account.

    Capacity is a hard bound: {!store} on a full node returns
    [`Remote_full] and the caller degrades to the disk tier — a full
    remote node never kills anything.

    Slots run below [2^32] and shards below [256]; {!store},
    {!holds} and {!drop} raise [Invalid_argument] outside them. *)

open Engine

type t

val create : capacity_pages:int -> unit -> t

val service_time : Time.span
(** 25 us: the node-side latency per entry looked up or stored — DRAM
    plus the remote NIC, far below a disk transaction. *)

val store :
  t -> shard:int -> owner:string -> slot:int -> (unit, [ `Remote_full ]) result
(** Idempotent: storing an entry the node already holds succeeds
    without consuming a second slot. *)

val holds : t -> shard:int -> owner:string -> slot:int -> bool
val drop : t -> shard:int -> owner:string -> slot:int -> unit

val has_room : t -> bool
val used_pages : t -> int
val capacity : t -> int

val wipe : t -> unit
(** Forget everything — models the remote node power-cycling; the
    fleet's placement entries for this node go stale, and reads
    reconstruct (fail over to another copy, for replicas) or fall
    back to the disk. *)
