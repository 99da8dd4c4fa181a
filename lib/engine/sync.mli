(** Synchronisation primitives for {!Proc} processes.

    All blocking operations must be called from inside a process. The
    wake-up side ([fill], [send], [broadcast], ...) may be called from
    anywhere, including plain simulator callbacks. Each blocked process
    is a {!Proc.waiter} (an {!Ivar}'s first reader) or a {!Proc.Fifo}
    entry (everything else): a waker that finds one whose process was
    killed while blocked wakes nothing. Blocking and waking allocate
    nothing beyond the parked continuation, bar an {!Ivar}'s reader
    and a {!Mailbox}'s or {!Handoff}'s value in transit. *)

module Ivar : sig
  (** Write-once cell. *)

  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val try_fill : 'a t -> 'a -> bool

  val read : 'a t -> 'a
  (** Block until filled, then return the value. *)

  val read_timeout : 'a t -> Time.span -> 'a option
  (** Block until filled or until the timeout elapses ([None]). *)

  val peek : 'a t -> 'a option
end

module Handoff : sig
  (** Processes blocked until each is handed one value, served oldest
      first. The building block of every receive that carries a value
      ({!Mailbox}, the USD's IO channels, the network's receive
      rings). *)

  type 'a t

  val create : unit -> 'a t

  val is_empty : 'a t -> bool
  (** No process is blocked in {!recv}. *)

  val recv : 'a t -> 'a
  (** Block until {!give} hands the caller a value. *)

  val give : 'a t -> 'a -> unit
  (** Hand the value to the oldest blocked receiver, which must exist.
      If that receiver was killed while blocked, the value is
      dropped. *)
end

module Mailbox : sig
  (** Unbounded FIFO queue with blocking receive. *)

  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit

  val recv : 'a t -> 'a
  (** Block until a message is available. Messages are delivered in
      FIFO order; competing receivers are served in arrival order. *)

  val length : 'a t -> int
end

module Semaphore : sig
  type t

  val create : int -> t
  (** Initial count must be >= 0. *)

  val acquire : t -> unit
  val release : t -> unit
end

module Waitq : sig
  (** Condition-variable-like wait queue (no associated lock — the
      simulator is cooperatively scheduled so there is no data race to
      guard against; re-check your predicate after waking). *)

  type t

  val create : unit -> t
  val wait : t -> unit

  val wait_timeout : t -> Time.span -> bool
  (** [wait_timeout q d] waits for a broadcast for at most [d]; [true]
      means woken, [false] means timed out. *)

  val broadcast : t -> unit
  (** Wake all current waiters. *)
end
