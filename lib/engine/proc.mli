(** Green processes on top of {!Sim}, implemented with OCaml effects.

    A process is a cooperative coroutine whose blocking operations
    ({!sleep}, {!park} and everything in {!Sync}) advance simulated
    time instead of real time. Processes must only perform blocking
    operations while running inside the simulator's event loop. *)

type t

exception Killed
(** Raised inside a process when it is resumed after {!kill}. *)

val spawn : ?name:string -> Sim.t -> (unit -> unit) -> t
(** [spawn sim body] creates a process that starts executing [body] at
    the current simulated instant (as a freshly scheduled event).
    Uncaught exceptions other than {!Killed} escape the event loop and
    abort the run — deliberate, so tests fail loudly. *)

val self : unit -> t
(** The currently running process. Raises [Failure] outside one. *)

val sim : t -> Sim.t
val name : t -> string

val current_sim : unit -> Sim.t
(** Simulator of the currently running process. *)

val sleep : Time.span -> unit
(** Block the current process for a simulated duration (>= 0). *)

val sleep_until : Time.t -> unit

val yield : unit -> unit
(** Reschedule the current process at the same instant, letting other
    events due now run first. *)

(** {2 Waiters}

    A blocking primitive suspends a process in three steps: take the
    process's {!waiter} (or {!Fifo.push} it), record it where the
    waking side will find it, then {!park}. The waker calls {!wake}
    (or {!Fifo.wake_first}); a value it hands over goes through the
    waiting structure, not through the wake. Parking allocates only
    the continuation, which the process's record keeps; a sleep or a
    timed park re-arms the process's one timer handle, and takes a
    fresh one only while a cancelled arm of it is still queued. *)

type waiter
(** One suspension of one process: the process and its suspension
    number. Only the first {!wake} of the suspension it was taken for
    resumes the process; a repeated wake, or a wake after a later
    suspension began, does nothing. *)

val waiter : unit -> waiter
(** The current process's next suspension. Raises {!Killed} if a kill
    is pending, before the caller has registered anything. *)

val park : unit -> unit
(** Block the current process until its waiter is woken (a wake that
    came between {!waiter} and [park] resumes it at once). *)

val park_timeout : Time.span -> bool
(** [park_timeout d] is {!park} with a timer armed for [d]: [true] if
    the waiter was woken first, [false] if the timer fired first. A
    woken process cancels its timer; a killed one leaves it to fire
    later as a no-op. *)

val wake : waiter -> unit
(** Queue the process's resume at the current instant, if the
    waiter's suspension is still current. *)

(** {2 Queues of suspensions} *)

module Fifo : sig
  (** Processes blocked in arrival order, served oldest first: the
      waiter queue of every blocking primitive with more than one
      slot. An entry is the process and its suspension number, as a
      {!waiter} holds them, plus one int the caller may use; they
      live in growable ring arrays made on the first {!push}, so
      neither pushing nor waking allocates once the arrays have
      grown. As with a {!waiter}, an entry whose process was killed
      (or otherwise resumed) while queued wakes nothing. *)

  type t

  val create : unit -> t
  val is_empty : t -> bool

  val push : t -> int -> unit
  (** [push q x] queues the current process's next suspension, with
      [x], for the caller to {!park} on. Raises {!Killed} if a kill is
      pending, before anything is queued. *)

  val first : t -> int
  (** The oldest entry's int. Raises [Invalid_argument] if [q] is
      empty. *)

  val set_first : t -> int -> unit

  val wake_first : t -> bool
  (** Drop the oldest entry and {!wake} its suspension: [true] if that
      suspension was still current. Raises [Invalid_argument] if [q]
      is empty. *)

  val wake_all : t -> unit
  (** Drop every entry, waking each current suspension, oldest
      first. *)
end

val kill : t -> unit
(** Mark the process dead. If it is blocked, it is woken immediately
    and {!Killed} is raised at its suspension point. Killing a
    finished process is a no-op. *)

val is_alive : t -> bool

val on_terminate : t -> (unit -> unit) -> unit
(** Register a callback to run when the process finishes, is killed,
    or dies with an exception. Runs immediately if already dead. *)

val join : t -> unit
(** Block until the given process terminates. *)
