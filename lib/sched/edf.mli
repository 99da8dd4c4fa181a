(** Atropos-style EDF accounting core.

    Shared by the CPU scheduler, the USD disk scheduler and the network
    link scheduler. Each client holds a QoS contract [(p, s, x)]: it
    may consume at most [s] of the resource in every period [p]; [x]
    marks eligibility for slack time. Deadlines are implicit (the end
    of the current period); allocation is replenished at each period
    boundary with {b roll-over accounting}: a client that ends a period
    with negative remaining time (it was allowed to complete an
    overrunning transaction) has the deficit deducted from its next
    allocation, so it cannot deterministically exceed its guarantee.

    As in Atropos, the owning scheduler tells the core which clients
    have work: a client is {e runnable} when {!select} may pick it and
    {e backlogged} when {!select_slack} may. Only those clients sit on
    the deadline-ordered queues a decision looks at, so a decision
    never touches an idle client. *)

open Engine

type client = private {
  id : int;  (** handed out in admission order *)
  cname : string;
  period : Time.span;
  slice : Time.span;
  extra : bool;  (** x flag: eligible for slack *)
  mutable deadline : Time.t;  (** end of current period *)
  mutable remaining : Time.span;  (** may be negative (roll-over) *)
  mutable used_total : Time.span;  (** lifetime consumption *)
  mutable slack_total : Time.span;  (** lifetime slack consumption *)
  mutable runnable : bool;  (** see {!set_runnable} *)
  mutable backlogged : bool;  (** see {!set_backlogged} *)
}

type t

(** The order in which one {!replenish_due} call visits the clients
    whose period boundary has passed. It decides the order of the
    boundary-hook calls, and so of everything the owner records there. *)
type order =
  | By_deadline  (** [(deadline, id)] *)
  | By_admission  (** ascending id *)

val create : ?rollover:bool -> ?order:order -> unit -> t
(** [rollover] (default true) enables negative-remaining carry; the
    A-rollover ablation disables it. [order] defaults to
    [By_deadline]. *)

val admit :
  t -> name:string -> period:Time.span -> slice:Time.span -> ?extra:bool ->
  now:Time.t -> unit -> (client, string) result
(** Admission control: refused when total utilisation Σ s/p would
    exceed 1. The first deadline is [now + period]. A new client starts
    runnable and backlogged. *)

val remove : t -> client -> unit

val clients : t -> client list
(** Live clients in admission order. *)

val utilisation : t -> float

val set_runnable : t -> client -> bool -> unit
(** Whether {!select} may pick the client (it still needs budget).
    O(log n) when the flag changes, O(1) otherwise; a no-op on a
    removed client. *)

val set_backlogged : t -> client -> bool -> unit
(** Whether {!select_slack} may pick the client (it still needs the
    [extra] flag). Same costs as {!set_runnable}. *)

val set_boundary_hook :
  t ->
  (client -> unused:Time.span -> boundary:Time.t -> grants:int -> unit) ->
  unit
(** Observe period boundaries: the hook fires from {!replenish}
    whenever at least one boundary was crossed, with the first crossed
    deadline and the allocation left unspent at it ([unused], clamped
    at 0 — a roll-over deficit reports as 0). The owning scheduler
    feeds the QoS auditor from it and resets its per-period state
    there; it may change the client's flags. At most one hook per
    scheduler. *)

val replenish : t -> now:Time.t -> client -> int
(** Apply every period boundary at or before [now]; returns the number
    of new allocations granted (0 if the deadline is still ahead). A
    client idle across many periods is fast-forwarded without stacking
    allocations. *)

val replenish_due : t -> now:Time.t -> unit
(** {!replenish} exactly the clients whose deadline is at or before
    [now], in the {!order} given at {!create}: O(k log n) for k due
    clients rather than a scan of all n. *)

val charge : client -> Time.span -> unit

val charge_slack : client -> Time.span -> unit
(** Account resource use that was granted as slack: lifetime totals
    only, the period allocation is not debited. *)

val has_budget : client -> bool
(** remaining > 0. *)

val select : ?only:(client -> bool) -> t -> now:Time.t -> client option
(** The runnable client with budget that has the earliest
    [(deadline, id)] — ties on the deadline go to the earliest-admitted
    client. Callers must {!replenish_due} first. Runnable clients found
    out of budget are parked until their next allocation, so the
    decision allocates nothing but its result. [only] is a residual
    filter, applied by a pruned walk of the runnable queue. *)

val select_slack : t -> now:Time.t -> client option
(** The backlogged, slack-eligible ([extra]) client with the earliest
    [(deadline, id)], regardless of budget — used to hand out idle
    resource time. *)

val next_deadline : t -> Time.t option
(** Earliest pending period boundary over all clients. *)

val next_backlogged_deadline : t -> Time.t option
(** Earliest pending period boundary over the backlogged clients. *)
