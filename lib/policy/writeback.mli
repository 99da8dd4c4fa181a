(** Write-behind of dirty evictions.

    Instead of one synchronous disk write per dirty eviction, the
    driver parks the evicted page — frame and all — in this buffer and
    flushes when the batch fills (or when frames are needed, or at
    revocation). A flush sorts the batch by disk address and issues one
    USD transaction per {e contiguous} run of bloks, so a sweep that
    dirties consecutive pages pays one rotation instead of many.

    Because the frame is pinned until its write completes, the buffer
    preserves read-your-writes: a fault on a parked page is
    {e rescued} — the pending write is cancelled and the very same
    frame remapped, with no disk I/O at all (the page stays dirty, so
    it will be cleaned on its next eviction). The invariant: an entry
    is rescuable for exactly as long as it is parked, and it leaves
    the buffer only at the instant its write is issued ([flush]'s
    commit point) — never earlier. So a page is never read from the
    backing store while this buffer holds a newer, not-yet-issued
    copy; [member] is exact, so the driver can always tell.

    The buffer holds metadata only; the [write] callback the driver
    passes to {!flush} (running under the domain's own disk guarantee)
    does the actual transaction. *)

type entry = { page : int; blok : int; frame : int }

type t

val create : ?max_batch:int -> unit -> t
(** [max_batch <= 1] disables batching: [enabled t = false] and the
    driver writes through synchronously, as the seed did. *)

val enabled : t -> bool

val pending : t -> int
(** Entries (= pinned frames) currently parked. *)

val full : t -> bool
(** [pending t >= max_batch]: the driver should flush. *)

val member : t -> page:int -> bool

val enqueue : t -> page:int -> blok:int -> frame:int -> unit
(** Park a dirty evicted page. Raises [Invalid_argument] if the page
    is already parked (the driver must rescue first) or batching is
    disabled. *)

val rescue : t -> page:int -> entry option
(** Cancel the pending write and surrender the entry (read-your-writes
    fast path); [None] if the page is not parked. *)

val flush :
  ?commit:(page:int -> unit) ->
  ?release:(page:int -> frame:int -> unit) ->
  write:(blok:int -> nbloks:int -> unit) ->
  t -> (int * int) list
(** Drain the buffer, coalescing into one [write] call per contiguous
    blok run (ascending). Runs are issued one at a time; entries of a
    run stay parked — and therefore rescuable — until the instant that
    run's write is issued. Per run: [commit ~page] fires for each
    entry immediately before the write (with no intervening blocking
    point, so the driver can re-point the page at the backing store
    atomically with the submission), then [write], then
    [release ~page ~frame] once the write has completed and the frame
    is no longer pinned. Entries parked while a write was in flight
    are flushed too; entries rescued meanwhile are skipped. Returns
    the [(page, frame)] pairs written by this call. Empty buffer: no
    calls, empty list. *)
