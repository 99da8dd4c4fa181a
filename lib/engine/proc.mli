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
    process's {!waiter}, record it where the waking side will find it,
    then {!park}. The waker calls {!wake}; a value it hands over goes
    through the waiting structure, not through the wake. *)

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

val is_waiting : waiter -> bool
(** Whether {!wake} would resume the process: no resume has been
    queued since the waiter was taken. *)

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
