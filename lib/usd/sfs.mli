(** The Swap File System: the control half of the User-Safe Backing
    Store.

    The SFS owns a region of the disk's block space and handles control
    operations — allocating an {e extent} (a contiguous range of
    blocks) for use as a swap file, and negotiating the QoS parameters
    of the data path with the USD. Data operations then go straight
    from the client to the USD, scheduled under that client's own
    guarantee: paging traffic of one domain cannot consume another's
    disk time.

    {b Crash consistency.} With [journal_blocks > 0] the head of the
    region is reserved for a write-ahead intent {!Journal}: swap
    open/close and spare remaps are journaled before the in-heap
    structures mutate, and every committing data write appends one
    Commit record after the data landed. {!remount} replays the
    journal idempotently, rebuilds the free map and the per-swap
    remap / assignment tables, and quarantines torn records; a swap
    whose owner died can then be reattached by name ({!detach_swap} /
    {!reattach_swap}) with its committed pages intact. Without a
    journal the behaviour is bit-for-bit the seed semantics. *)

type t

type swapfile

val create :
  ?journal_blocks:int -> ?first_block:int -> ?nblocks:int -> Usd.t -> t
(** Manage [nblocks] of disk starting at [first_block] (defaults: the
    whole disk). [journal_blocks] (default 0 = no journal) reserves
    that many bloks at the head of the region for the intent journal
    and admits a dedicated USD client ["sfs.journal"] under 20 ms per
    100 ms so journal traffic is scheduled like any other client. *)

type open_error = [ `Exists | `Sfs of string ]
(** [`Exists]: a swapfile of that name is already open — opening it
    again would alias live state. [`Sfs msg]: disk space or disk
    bandwidth exhausted, or the open intent could not be journaled. *)

val open_error_message : open_error -> string

val open_swap :
  t -> name:string -> bytes:int -> qos:Qos.t -> ?spare_pages:int -> unit ->
  (swapfile, open_error) result
(** Allocate an extent of at least [bytes] and admit a USD client with
    the given guarantee. Fails when disk space or disk bandwidth is
    exhausted, and with [`Exists] when [name] is already open.
    [spare_pages] (default 0) reserves extra page slots at the extent
    tail for bad-blok remapping: when a write hits a persistent media
    error the page is transparently relocated to a spare and the remap
    consulted by every later access. *)

val close_swap : t -> swapfile -> unit
(** Return the extent to the free pool, retire the USD client and
    forget the name. Journaled as a close intent. *)

val detach_swap : t -> swapfile -> unit
(** Retire the USD client but keep the extent, name and recovered
    metadata registered: the owner died, a restarted incarnation may
    {!reattach_swap}. Data operations on a detached swapfile return
    [`Retired]. *)

type reattach_error = [ `Unknown | `Attached | `Sfs of string ]

val reattach_swap :
  t -> name:string -> qos:Qos.t ->
  (swapfile * (int * int) list, reattach_error) result
(** Re-admit a USD client for a detached swapfile and return it along
    with its committed [(stretch page, slot)] pairs, sorted — the
    pages a restarted domain can fault back in from swap. *)

val find_swap : t -> string -> swapfile option

val free_blocks : t -> int

(** {2 Data path} *)

val extent_blocks : swapfile -> int
val extent_start : swapfile -> int
val page_capacity : swapfile -> int
(** Number of whole data pages the extent can hold (spares excluded). *)

val swap_name : swapfile -> string
val attached : swapfile -> bool

val swap_journaled : swapfile -> bool
(** The owning store has an intent journal mounted — committing write
    paths and the out-of-place rewrite rule apply. *)

type io_error = [ `Lost_pages of int list | `Retired | `Crashed ]
(** [`Lost_pages l]: the recovery ladder (bounded retry with backoff,
    then bad-blok remap for persistent write errors) was exhausted and
    the listed page slots' contents are unrecoverable. [`Retired]: the
    swapfile's USD client went away under the operation (or the
    swapfile is detached). [`Crashed]: an {!Inject} crash point fired
    during a durable write — the write is torn on the platter and the
    writer must treat itself as dead; recovery happens at {!remount}.

    {!Inject} accounting: read losses are noted ([note_killed]) here —
    no caller can conjure the data back. A {e write} loss is not: the
    caller still holds the source frame and may re-site the page
    (note_remapped) or give it up (note_killed); answering the final
    error is the caller's duty, exactly once per listed slot. Crashes
    are tallied separately and stay out of the equation. *)

val read_page : swapfile -> page_index:int -> (unit, io_error) result
(** Synchronous page-sized read of the extent's [page_index]-th page
    slot, scheduled under the swapfile's guarantee. Blocks the calling
    process for the transaction's duration (including any retries). *)

val write_page : swapfile -> page_index:int -> (unit, io_error) result

val read_pages :
  swapfile -> page_index:int -> npages:int -> (unit, io_error) result
(** One disk transaction covering [npages] consecutive page slots —
    the stream-paging extension reads ahead with this. On a media
    error the coalesced transfer degrades to page-at-a-time so healthy
    pages still move and only genuinely bad slots are reported lost. *)

val write_pages :
  swapfile -> page_index:int -> npages:int -> (unit, io_error) result
(** One disk transaction writing [npages] consecutive page slots —
    write-behind coalesces batched dirty evictions with this. Degrades
    like {!read_pages}. *)

val write_pages_commit :
  swapfile ->
  page_index:int ->
  npages:int ->
  pages:(int * int) list ->
  retire:(int * int) list ->
  (unit, io_error) result
(** {!write_pages}, then — under a journal — one Commit record marking
    the [(stretch page, slot)] assignments in [pages] durable and
    retiring the superseded [(stretch page, old slot)] pairs in
    [retire]. The record is appended only after the data write
    succeeded, so its presence certifies the data; a torn data write
    leaves no record and claims nothing. Without a journal this is
    exactly {!write_pages}. *)

val slot_committed : swapfile -> int -> bool
(** The slot's contents are covered by a journal Commit record. A
    committed slot must never be overwritten in place (a torn write
    would destroy the only durable copy); re-site the page to a fresh
    slot and retire the old one through {!write_pages_commit}. *)

val committed_pairs : swapfile -> (int * int) list
(** Sorted committed [(stretch page, slot)] assignments. *)

val slot_ok : swapfile -> slot:int -> bool
(** The durable stamp for this slot is present and intact — the
    remount verification primitive. *)

val retry_count : swapfile -> int
(** Transient-error retries performed so far. *)

val remap_count : swapfile -> int
(** Pages relocated to spare slots so far. *)

val lost_count : swapfile -> int
(** Page slots declared unrecoverable so far. *)

(** {2 Remount / recovery} *)

type remount_stats = {
  rm_replayed : int;  (** valid journal records replayed *)
  rm_torn : int;  (** torn records detected and quarantined *)
  rm_scanned : int;  (** journal bloks scanned *)
  rm_swaps : int;  (** detached swaps rebuilt from the journal *)
  rm_conflicts : int;
      (** replayed swaps whose extent could not be placed in the
          rebuilt free map (overlap — indicates a lost close record) *)
}

val remount : t -> (remount_stats, string) result
(** Replay the journal and rebuild the control state: the free map is
    reconstructed from scratch (journal region first, then every
    surviving extent at its recorded place), swaps whose owners are
    still attached keep their live structures, and detached or unknown
    swaps are adopted from the journal image with their remap /
    assignment / commit tables. Idempotent: remounting twice yields
    identical {!snapshot}s. Must run inside a simulation process (the
    journal scan is a timed read). Fails only when no journal is
    mounted. *)

val snapshot : t -> string
(** Canonical dump of the control state — free blocks, per-swap
    extents, remap tables, assignments and commit marks — for the
    recovery idempotence and determinism tests. *)
