(** Discrete-event simulation core.

    A [Sim.t] owns the simulated clock and its pending callbacks: a
    priority queue for future instants and a FIFO for the current one.
    Events run in (time, scheduling order), so events due at the same
    instant fire in the order they were scheduled, which makes every
    run deterministic. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. Once it has
    fired, or been cancelled and then dropped from the queue, it is
    idle and may be re-armed with {!rearm}. *)

type task
(** A reusable callback that can be queued at the current instant any
    number of times, one queuing at a time; never cancelled. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator with clock at {!Time.zero}. [seed] (default 42)
    initialises the root random stream. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The simulator's root random stream. Subsystems should {!Rng.split}
    it rather than share it. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at sim t f] schedules [f] to run at absolute time [t]. Scheduling
    in the past raises [Invalid_argument]. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after sim d f] = [at sim (now + d) f]. *)

val rearm : handle -> Time.t -> bool
(** [rearm h t] schedules [h]'s callback again at [t] on [h] itself,
    exactly as [at] would schedule a fresh handle, if [h] is idle.
    It does nothing and returns [false] while [h] is queued, or
    cancelled but not yet dropped from the queue. *)

val task : t -> (unit -> unit) -> task
(** [task sim f] makes a task that runs [f] each time it is posted. *)

val post_now : task -> unit
(** Queue the task to run at the current instant, after every event
    already due now: an event like [after sim 0 f], without allocating.
    Posting a task that is already queued runs it twice. *)

val cancel : handle -> unit
(** Prevent a queued event from firing; a no-op on a handle that has
    already fired or been cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Run the event loop until the queue drains, or until the clock would
    pass [until] (the clock is left at [until] in that case). *)

val step : t -> bool
(** Execute the single next event. Returns [false] if the queue was
    empty. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val pending_peak : t -> int
(** The largest {!pending} seen as an event's handler returned, since
    {!create}. Always counted. *)

val executed : t -> int
(** Events whose handler has run since {!create}. Always counted. *)

val cancelled : t -> int
(** Events cancelled before they fired, since {!create}. Always
    counted. *)
