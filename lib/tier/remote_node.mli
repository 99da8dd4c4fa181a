(** A deterministic model of a remote memory node.

    The far end of the disaggregated-memory tier: a bounded pool of
    page-or-shard slots keyed by [(owner, slot, shard)], with a fixed
    per-entry service latency. The node itself is passive bookkeeping
    — {!Fleet} does the link transfers and sleeps the service time
    under the calling domain's own guarantees, so the node adds no
    hidden scheduling and two same-seed runs behave identically.

    [shard] defaults to [0]: {!Fleet}'s replicated mode keys
    whole-page copies as shard 0, while its erasure mode keys each of
    a page's [k + m] Reed–Solomon shards separately
    (each shard occupies one slot but holds only [1/k] of the page's
    bytes — capacity here counts {e entries}, the byte overhead is
    the caller's to account).

    Capacity is a hard bound: {!store} on a full node returns
    [`Remote_full] and the caller degrades to the disk tier — a full
    remote node never kills anything. *)

open Engine

type t

val create : ?service:Time.span -> capacity_pages:int -> unit -> t
(** [service] (default 25 us) is the node-side latency per entry
    looked up or stored — DRAM plus the remote NIC, far below a disk
    transaction. *)

val store :
  ?shard:int -> t -> owner:string -> slot:int -> (unit, [ `Remote_full ]) result
(** Idempotent: storing an entry the node already holds succeeds
    without consuming a second slot. *)

val holds : ?shard:int -> t -> owner:string -> slot:int -> bool
val drop : ?shard:int -> t -> owner:string -> slot:int -> unit

val has_room : t -> bool
val used_pages : t -> int
val capacity : t -> int
val service_time : t -> Time.span

val wipe : t -> unit
(** Forget everything — models the remote node power-cycling; the
    fleet's placement entries for this node go stale, and reads fail
    over, reconstruct or fall back to the disk. *)
