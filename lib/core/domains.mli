(** Domain runtime: activations, event dispatch and memory access.

    A domain (the Nemesis analogue of a process) executes user threads
    under its own CPU contract. Memory accesses go through the
    simulated MMU; on a fault the kernel part is exactly what the paper
    prescribes — save context, send an event to the faulting domain —
    after which the faulting thread is blocked and the domain's own
    activation machinery (notification handlers running in a restricted
    environment where IDC is forbidden, then worker threads) resolves
    the fault using the domain's own resources.

    The memory-management entry registers itself via
    {!set_fault_handler}; this module knows nothing about stretch
    drivers. *)

open Engine
open Hw
open Sched

type t

val create :
  sim:Sim.t -> id:int -> name:string -> cpu:Cpu.t -> cpu_client:Cpu.client ->
  pdom:Pdom.t -> mmu:Mmu.t -> cost:Cost.t -> unit -> t

val id : t -> int
val name : t -> string
val pdom : t -> Pdom.t
val cost : t -> Cost.t
val sim : t -> Sim.t
val alive : t -> bool

val consume_cpu : t -> Time.span -> unit
(** Burn simulated CPU time under this domain's contract. *)

val cpu_used : t -> Time.span

val set_fault_handler : t -> (Fault.t -> unit) -> unit
(** Install the notification handler for memory faults (it runs in the
    activation-handler environment). *)

val assert_idc_allowed : t -> string -> unit
(** Raises [Failure] when called inside an activation handler —
    enforces the paper's "no IDC within a notification handler" rule. *)

val queue_notification : t -> (unit -> unit) -> unit
(** Deliver a notification-handler run at the domain's next
    activation (used by other event sources, e.g. revocation). *)

val access : t -> Addr.vaddr -> Mmu.access -> unit
(** Perform a memory access from the current (user-thread) process:
    translates, charges the MMU cost, and on a fault blocks until the
    domain resolves it, then retries. Raises {!Fault.Unresolved} if the
    domain fails to resolve its own fault. *)

val try_access :
  t -> Addr.vaddr -> Mmu.access -> (unit, Fault.t * string) result
(** Like {!access} but reports failure instead of raising. *)

val faults_taken : t -> int

val spawn_thread : t -> name:string -> (unit -> unit) -> Proc.t
(** Start a user thread belonging to this domain (killed with it). *)

val on_kill : t -> (unit -> unit) -> unit

val kill : t -> unit
(** Terminate the domain: all its threads, its dispatcher, and any
    thread blocked on one of its faults. *)
