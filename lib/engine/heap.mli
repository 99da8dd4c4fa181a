(** Binary min-heap keyed by integer priority.

    Used as the simulator's pending-event queue: keys are
    [(time, sequence-number)] pairs encoded by the caller so that ties
    break in insertion order. Keys, sub-keys and values live in three
    parallel arrays, so neither [push] (amortised) nor [pop] allocates;
    both are O(log n). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> sub:int -> 'a -> unit
(** [push h ~key ~sub v] inserts [v] with primary priority [key];
    equal keys are ordered by the secondary priority [sub]. *)

val top_key : 'a t -> int
(** The minimum element's primary key. Raises [Invalid_argument] on an
    empty heap. *)

val pop : 'a t -> 'a
(** Remove the minimum element and return its value. Raises
    [Invalid_argument] on an empty heap. *)
