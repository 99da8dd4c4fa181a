(** The memory-management entry (MMEntry).

    An {e entry} is the combination of a notification handler and a set
    of worker threads encapsulating a scheduling policy on event
    handling. The MMEntry's notification handler is attached to the
    endpoint the kernel uses for fault dispatching; it demultiplexes
    the faulting stretch to the stretch driver bound to it and invokes
    the driver's fast path. If that returns [Retry], the faulting
    thread stays blocked and a worker thread — where IDC is allowed —
    invokes the driver's full path.

    The MMEntry also coordinates revocation: on a revocation
    notification it cycles through the domain's stretch drivers asking
    each to relinquish frames until enough have been freed, then
    replies to the frames allocator. *)

type t

val create : Domains.t -> t
(** Attaches itself as the domain's fault handler, with one fault
    worker and a dedicated revocation worker. *)

val bind : t -> Stretch.t -> Stretch_driver.t -> unit
(** Bind a stretch to a driver (also invokes the driver's own [bind]).
    Replaces any previous binding for the stretch. *)

val unbind : t -> Stretch.t -> unit

val wire_revocation : t -> Frames.t -> Frames.client -> unit
(** Install this entry as the revocation notification handler for the
    domain's frames contract. *)

val faults_fast : t -> int
(** Faults satisfied on the notification-handler fast path. *)

val faults_slow : t -> int
(** Faults that needed a worker thread. *)

val revocations_handled : t -> int
