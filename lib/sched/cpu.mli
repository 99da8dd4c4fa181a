(** Uniprocessor CPU scheduler: {!Atropos}'s loop over CPU time.

    Domains are admitted with a `(p, s)` CPU contract and call
    {!consume} to burn simulated CPU time; the scheduler serialises all
    execution on the single CPU and grants time EDF-first to clients
    with budget, handing out slack by deadline, at most a 1 ms quantum
    at a time, when nobody with budget is runnable. The machine is
    work-conserving, as a real Atropos kernel is. The experiments never
    saturate the CPU, matching the paper, but self-paging's "pay for
    your own faults" is enforced because every fault-handling step runs
    under the faulting domain's own contract. *)

open Engine

type t

type client

val create : Sim.t -> t

val admit :
  t -> name:string -> period:Time.span -> slice:Time.span -> ?extra:bool ->
  unit -> (client, string) result
(** [extra] defaults to [true]: domains may use slack CPU time. *)

val consume : t -> client -> Time.span -> (unit, [ `Removed ]) result
(** Block the calling process until the domain has been scheduled for
    the given cumulative CPU time. [consume t c 0] returns at once.
    [Error `Removed] if the client's contract has been withdrawn. *)

val remove : t -> client -> unit
(** Withdraw the contract; pending requests are abandoned (their
    waiters are never woken — callers are expected to be killed). *)

val used : client -> Time.span
(** Lifetime CPU time consumed by the client. *)

val name : client -> string

val edf_client : client -> Edf.client
(** Accounting view, for tests and reporting. *)
