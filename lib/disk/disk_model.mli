(** Mechanical disk model with a segmented read-ahead cache.

    Deterministic: the rotational position is a pure function of
    simulated time, so a run always produces the same transaction
    timings. Two service regimes emerge, matching the paper's traces:

    - {b Sequential reads} hit the read-ahead cache (the drive streams
      ahead of a sequential client between host transactions), so each
      page-sized read costs controller overhead plus transfer — about a
      millisecond, "all transactions roughly the same time" (Fig. 7).
    - {b Writes} (write cache disabled) and non-sequential reads pay
      seek plus rotational latency plus media transfer. Back-to-back
      sequential writes separated by even a small host gap miss their
      rotational position and wait most of a revolution — the ≈10 ms
      transactions of Fig. 8, "some clearly taking an additional
      rotational delay".

    The model is single-spindle and caller-serialised: the USD executes
    one transaction at a time, which is also what the paper's scheduler
    does. *)

open Engine

type op = Read | Write

type t

val create : unit -> t
(** The paper's disk, {!Disk_params.vp3221}. *)

val params : t -> Disk_params.t

type error = { bad_lba : int; persistent : bool }
(** A media error injected by {!Inject}: the LBA that failed, and
    whether retrying can possibly succeed. *)

val service_result :
  t ->
  now:Time.t ->
  op:op ->
  lba:int ->
  nblocks:int ->
  (Time.span, Time.span * error) result
(** Time to complete the transaction starting at [now], updating head
    position and cache state. [Error (elapsed, e)] reports an injected
    media error; [elapsed] is the mechanical time burned discovering it
    (the head still travels, the drive still retries internally).
    Raises [Invalid_argument] if the block range is outside the disk. *)

val service : t -> now:Time.t -> op:op -> lba:int -> nblocks:int -> Time.span
(** [service_result] for callers that predate the error path; raises
    [Failure] on an injected media error (unreachable while {!Inject}
    is disarmed). *)

(** {2 Durable contents}

    The platter as a byte store: crash-consistency clients (the
    {!Usbs.Journal}, swap-slot stamps) record what actually persisted,
    independent of transaction timing. A torn write stores only the
    prefix that made it to the media; a remount reads back whatever
    survives. Bloks never written load as [None]. *)

val store : t -> lba:int -> string -> unit
val load : t -> lba:int -> string option
val erase : t -> lba:int -> unit

(** {2 Introspection} *)

val cache_hits : t -> int
val mechanical_ops : t -> int
val seeks : t -> int
(** Transactions that required a non-zero cylinder move. *)

val pp_stats : Format.formatter -> t -> unit
