(** Entries: notification handler + worker thread.

    Following ANSAware/RT (as the paper does), an {e entry} is the
    combination of a notification handler and a set of worker threads,
    encapsulating a scheduling policy on event handling. The
    notification handler runs in the activation-handler environment —
    it must not block or perform IDC — and either completes a job on
    the spot (the fast path) or defers it to the entry's worker
    thread, which runs as an ordinary domain thread where blocking and
    IDC are allowed.

    The memory-management entry ({!Mm_entry}) is built on this; other
    IDC services can reuse it. *)

type 'job t

val create :
  Domains.t -> name:string ->
  fast:('job -> [ `Done | `Defer ]) -> slow:('job -> unit) -> unit -> 'job t
(** [create dom ~name ~fast ~slow ()] makes an entry whose notification
    handler applies [fast] (in activation context) and whose one worker
    thread (["NAME-worker1"]) applies [slow] to deferred jobs in FIFO
    order. Worker wake-ups are charged the user-level thread-scheduler
    cost. *)

val notify : 'job t -> 'job -> unit
(** Deliver a job through the domain's activation path: at the
    domain's next activation the notification handler runs (costed),
    then the worker picks up whatever was deferred. *)

val handle_now : 'job t -> 'job -> unit
(** Run the notification handler for a job from the current activation
    context — for callers that are already inside a costed notification
    (e.g. the fault-channel handler) and must not pay a second
    activation. *)

val defer : 'job t -> 'job -> unit
(** Queue a job straight for the worker, skipping the fast path. *)

val depth : 'job t -> int
(** Jobs currently queued for the worker. *)

val fast_handled : 'job t -> int
val slow_handled : 'job t -> int
