(** The compressed-memory pool: a dedicated frame budget holding
    compressed evicted pages.

    The zpool is the RAM half of the compressed tier ({!Sd_zram} is
    the backing-store adapter over it). Pages compress under a
    run-length model whose output size is a pure function of the page
    content's entropy — the deterministic "size model" the tenancy
    experiment relies on; {!compress}/{!decompress} are exact inverses
    (the round-trip property is tested). Compressed entries pack
    first-fit into page frames allocated {e optimistically} from the
    frames allocator under the pool's own service contract.

    Invariants:
    - {b write-through}: every entry's durable copy is below (disk),
      so all zpool contents are clean and shedding never loses data;
    - zpool frames are [Nailed] in the RamTab, so transparent
      revocation cannot silently steal compressed contents — under
      revocation {!expose_for_revocation} sheds whole frames
      synchronously and always meets the deadline;
    - an {!Inject.zpool_pressure} plan (armed before {!create})
      spawns a gremlin that periodically shrinks the budget,
      forcing sheds, then restores it. *)

open Engine
open Hw
open Core

val page_bytes : int

val compress : string -> string
(** Run-length encode ([(len <= 255, byte)] pairs). *)

val decompress : string -> string
(** Exact inverse of {!compress}. Raises [Invalid_argument] on a
    truncated stream. *)

val synth : key:string -> version:int -> string
(** Deterministic page contents for [key] at write [version]. The
    entropy class (zero page / long runs / short runs / random) is a
    pure function of the key, so a slot's compressibility is stable
    across rewrites. *)

type t

val create :
  sim:Sim.t -> frames:Frames.t -> client:Frames.client ->
  ramtab:Ramtab.t -> budget:int -> unit -> t
(** A pool drawing at most [budget] frames through [client] (admit it
    with guarantee 0 — the pool is meant to be revocable). Installs
    {!expose_for_revocation} as the client's revocation handler and,
    when an {!Inject.zpool_pressure} plan is armed, spawns the
    budget-shrink gremlin on [sim]. *)

val put : t -> key:string -> data:string -> [ `Stored | `Incompressible | `No_space ]
(** Compress and store (replacing any previous entry for [key]).
    [`Incompressible] if the compressed size exceeds half a page;
    [`No_space] if neither a held frame nor the budget/allocator can
    take it. Either failure leaves no stale entry behind. *)

val get : t -> key:string -> string option
(** Decompressed contents, if present. *)

val drop : t -> key:string -> unit
(** Remove the entry, if there is one; an emptied frame returns to the
    allocator. *)

val set_budget : t -> int -> int
(** Change the frame budget, shedding oldest-first down to it; returns
    the number of frames shed. *)

(** {2 Introspection} *)

val frames_held : t -> int

type stats = {
  z_stored : int;
  z_incompressible : int;
  z_overflow : int;  (** puts refused for budget/allocator space *)
  z_dropped : int;  (** entries dropped by sheds *)
  z_shed_frames : int;  (** frames freed by sheds + revocations *)
  z_bursts : int;  (** zpool-pressure bursts fired *)
}

val stats : t -> stats
