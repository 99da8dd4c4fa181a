(** Bounded, drop-oldest trace buffers.

    The unbounded {!Engine.Trace} is fine for a four-minute figure run
    but not for long soak runs: a ['a Ring.t] keeps the most recent
    [capacity] time-stamped records in O(capacity) memory, counting
    (rather than keeping) everything older. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 65536. Raises [Invalid_argument] when
    [capacity <= 0]. *)

val record : 'a t -> Engine.Time.t -> 'a -> unit
(** Append a record, evicting the oldest one when full. *)

val length : 'a t -> int
(** Records currently held (at most [capacity]). *)

val capacity : 'a t -> int

val dropped : 'a t -> int
(** Records evicted to make room since creation / the last [clear]. *)

val total : 'a t -> int
(** All records ever written: [length + dropped]. *)

val to_list : 'a t -> (Engine.Time.t * 'a) list
(** Oldest first. *)

val clear : 'a t -> unit
