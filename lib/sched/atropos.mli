(** The Atropos scheduler loop, shared by every guaranteed resource.

    The CPU ({!Cpu}), the User-Safe Disk and the network link run one
    loop over an {!Edf} core. Each turn it replenishes every client
    whose period boundary has passed, then picks the earliest-deadline
    runnable client with budget and serves one unit of its work — or,
    when that client has nothing queued, lets it hold the resource
    under its lax allowance. With no such client it hands the resource
    to the earliest backlogged x-flagged client as slack, and with
    none it sleeps until new work or a period boundary. The loop owns
    each client's runnable and backlogged flags, its lax allowance,
    the backlog stamp the QoS auditor reads, the boundary hook, and
    admission and removal. A resource brings its work queue and its
    serve step: one CPU chunk, one disk transaction, one packet.

    {b Laxity.} A runnable client picked with nothing queued holds its
    place for up to its [l], bounded by its budget and by the next
    period boundary; the wait is charged as if it were service time.
    Once the allowance is spent the client is idled until its next
    allocation, which refills it, as does every request served.
    Laxity covers the gaps between one client's requests: a pager has
    one disk transaction outstanding, and a page crosses the link as
    many MTU packets with think time between them. [l = 0] is plain
    EDF.

    {b The one rule apart}, fixed at {!create}, is what an empty client
    without laxity does; see {!empty_client}. *)

open Engine

type empty_client =
  | Stays_runnable
      (** The USD: an empty client stays on the runnable queue, so one
          picked with nothing queued and no lax left is idled for the
          rest of its period (the short-block problem), and the loop
          wakes at every period boundary. *)
  | Leaves_runnable
      (** The CPU and the link: an empty client without laxity leaves
          the runnable queue, and the loop wakes only at backlogged
          clients' boundaries. *)

type 'w t

type 'w client = private {
  edf : Edf.client;
  work : 'w;  (** the resource's own state: work queue and counters *)
  laxity : Time.span;  (** [l] *)
  mutable lax_left : Time.span;
  mutable lax_used : Time.span;  (** lifetime lax time charged *)
  mutable idled : bool;  (** lax spent: off until the next allocation *)
  mutable live : bool;
  mutable backlogged_since : Time.t;
      (** when the work queue last went non-empty; [max_int] while
          empty. The auditor counts a period as backlogged only when
          this predates its start. *)
}

(** What a resource plugs into the loop. *)
type 'w ops = {
  has_work : 'w -> bool;
  serve : 'w t -> 'w client -> slack:bool -> unit;
      (** Serve one unit of a client with work queued, charging it
          through {!charge}. Call {!taken} right after dequeuing. *)
  alloc : 'w client -> unit;  (** a new allocation was granted *)
  lax : 'w client -> Time.span -> unit;  (** lax time was charged *)
}

val create :
  name:string -> ?rollover:bool -> ?order:Edf.order ->
  ?audit:Obs.Qos_audit.resource -> empty:empty_client -> Sim.t -> 'w ops ->
  'w t
(** [name] names the loop's process, started at the first admission.
    [rollover] and [order] configure the {!Edf} core. With [audit],
    every period boundary feeds {!Obs.Qos_audit.boundary} while
    {!Obs.enabled}. *)

val admit :
  'w t -> name:string -> period:Time.span -> slice:Time.span -> extra:bool ->
  laxity:Time.span -> 'w -> ('w client, string) result
(** {!Edf.admit}; the new client's flags follow its (empty) work. *)

val remove : 'w t -> 'w client -> unit
(** Withdraw the contract and wake the loop. *)

val kick : 'w t -> unit
(** Wake the loop if it waits. *)

val queued : 'w t -> 'w client -> was_empty:bool -> unit
(** A request was queued; [was_empty] when the queue was empty just
    before (it stamps the backlog). Wakes the loop. *)

val taken : 'w t -> 'w client -> unit
(** A request was dequeued. *)

val charge : 'w client -> slack:bool -> Time.span -> unit
(** Charge service time to the slice, or as slack. *)

val name : 'w client -> string
val sim : 'w t -> Sim.t
val utilisation : 'w t -> float
