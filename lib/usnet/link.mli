(** The user-safe network link: Atropos-scheduled transmission.

    The paper states that Nemesis hands out explicit low-level
    guarantees for {e all} resources — "disks, network interfaces and
    physical memory are treated in the same way". The link runs the
    USD's scheduler, {!Sched.Atropos}'s loop, over the transmit side of
    a network link: clients hold [(p, s, x, l)] guarantees, the loop in
    the link driver domain transmits one packet at a time for the
    earliest-deadline client with budget, measured wire time is charged
    against the client's slice with roll-over accounting, and slack
    goes to x-flagged clients.

    Laxity [l] is the loop's too. Single-packet clients need none:
    without laxity an empty client leaves the runnable queue
    ({!Sched.Atropos.Leaves_runnable}) and is picked again as soon as
    it sends. A bulk transfer — a page fragmented into many MTU
    packets, as the remote-memory tier issues — may admit with
    [l > 0] to hold its place across the think time between its
    packets. *)

open Engine

type t

type client

type event =
  | Tx of { client : string; bytes : int; dur : Time.span }
  | Alloc of { client : string }
  | Slack_tx of { client : string; bytes : int; dur : Time.span }
  | Lax of { client : string; dur : Time.span }
      (** an empty bulk client held the link under its lax allowance *)

type admit_error =
  | Bad_queue_depth of { depth : int }
  | Bad_qos of { reason : string }
      (** malformed guarantee (non-positive period/slice, slice
          exceeding period, negative laxity) *)
  | Link_overcommit of { requested : float; available : float }
      (** admission would push Σ s/p past 1: [requested] is the s/p
          asked for, [available] what admission control could still
          grant *)

val admit_error_message : admit_error -> string
(** Reproduces the legacy untyped strings, e.g.
    ["admission refused: utilisation 1.100 > 1"]. *)

val create :
  ?name:string -> ?params:Net_params.t -> ?rollover:bool -> Sim.t -> t
(** [name] (default ["link"]) labels the link's Obs metrics and is the
    site key fault-injection plans target (see {!Inject.link}). *)

val name : t -> string
val params : t -> Net_params.t

val admit :
  t -> name:string -> period:Time.span -> slice:Time.span -> ?extra:bool ->
  ?queue_depth:int -> ?laxity:Time.span -> unit ->
  (client, admit_error) result
(** Admission control: Σ s/p ≤ 1 over the link. [queue_depth]
    (default 64) bounds the client's transmit ring; [laxity]
    (default 0) is the l of the [(p, s, x, l)] guarantee — see the
    module header. *)

val retire : t -> client -> unit

val send : t -> client -> bytes:int -> (unit Sync.Ivar.t, [ `Retired ]) result
(** Enqueue one packet (blocking while the ring is full); the ivar
    fills when the packet has left the wire. [Error `Retired] if the
    client has been retired. *)

val transmit : t -> client -> bytes:int -> (unit, [ `Retired ]) result
(** [send] then wait. *)

val packets_sent : client -> int
val bytes_sent : client -> int
val used_time : client -> Time.span
val lax_time : client -> Time.span
(** Lifetime lax (empty-ring) time charged to the client. *)

val trace : t -> event Trace.t
(** Every packet, allocation and lax charge of the run, kept as int
    rows (the kind and the client's EDF id in the header, then only
    that kind's fields) and rebuilt into {!event}s when read. *)
