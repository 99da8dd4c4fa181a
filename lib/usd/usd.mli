(** The User-Safe Disk: Atropos EDF scheduling of disk transactions
    with laxity and roll-over accounting.

    Each client holds a {!Qos.t} guarantee [(p, s, x, l)]. A scheduler
    thread in the USD domain — {!Sched.Atropos}'s loop — repeatedly
    picks the runnable client with the earliest deadline and performs a
    single transaction on its behalf; the measured duration is deducted
    from the client's remaining time. When the remaining time goes
    non-positive the client moves to the wait queue until its deadline,
    at which point it receives a new allocation [s] (minus any overrun
    deficit — the roll-over scheme) and a new deadline one period on.

    Laxity [l] is the loop's: paging clients have at most one request
    outstanding, and an empty stream stays runnable
    ({!Sched.Atropos.Stays_runnable}), holding its place for up to [l]
    charged as transaction time. With [l = 0] a stream picked with
    nothing queued is idled until its next allocation: the short-block
    problem, which the A-laxity ablation measures.

    Every transaction, new allocation and lax charge is recorded in a
    trace — the data behind the scheduler traces in Figures 7 and 8.
    The trace keeps every record of the run as a row of ints (the
    kind, the op, the media error's [persistent] bit and the client's
    EDF id in the row's header, then only that kind's fields), written
    without building an {!event}; reading it rebuilds the events, with
    each client's name looked up by its id. *)

open Engine
open Disk

type op = Read | Write

type media = { bad_lba : int; persistent : bool }
(** An injected media error surfaced to the client. *)

type txn_error =
  | Media of media
  | Cancelled  (** client was retired with the request still queued *)

type status = (unit, txn_error) result

type event =
  | Txn of { client : string; op : op; lba : int; nblocks : int;
             dur : Time.span }
  | Txn_error of { client : string; op : op; lba : int; nblocks : int;
                   dur : Time.span; media : media }
  | Alloc of { client : string }
  | Lax of { client : string; dur : Time.span }
  | Slack of { client : string; op : op; dur : Time.span }

type t

type client

val create : ?rollover:bool -> Sim.t -> Disk_model.t -> t
(** [rollover] (default true) exists for the A-rollover ablation. *)

val admit :
  t -> name:string -> qos:Qos.t -> ?channel_depth:int -> unit ->
  (client, string) result
(** Admission control refuses the client if Σ s/p would exceed 1.
    [channel_depth] (default 64) sizes the request IO channel. *)

val retire : t -> client -> unit

val submit :
  t -> client -> op -> lba:int -> nblocks:int ->
  (status Sync.Ivar.t, [ `Retired ]) result
(** Enqueue a transaction on the client's IO channel (blocking if the
    channel is full) and return the completion ivar. A retired client
    gets [Error `Retired] instead of an exception: user-level pagers
    race retirement and must be able to handle the loss. If the client
    is retired while the submitter is blocked on a full channel, the
    returned ivar is filled with [Cancelled] — every pending
    submission resolves, no waiter blocks forever. *)

val transact :
  t -> client -> op -> lba:int -> nblocks:int ->
  (unit, [ `Media of media | `Cancelled | `Retired ]) result
(** [submit] then wait for completion, with the two error layers
    flattened into one polymorphic variant. *)

val transact_exn : t -> client -> op -> lba:int -> nblocks:int -> unit
(** [transact] for callers with no recovery story; raises [Failure] on
    any error (unreachable while {!Inject} is disarmed and the client
    is never retired mid-flight). *)

val txn_count : client -> int
val bytes_moved : client -> int
val used_time : client -> Time.span
val lax_time : client -> Time.span

val trace : t -> event Trace.t
val disk : t -> Disk_model.t
val utilisation : t -> float

val pp_event : Format.formatter -> event -> unit
