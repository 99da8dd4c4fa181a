(** Growable array (subset of the stdlib [Dynarray] that arrived in
    OCaml 5.2; this project targets 5.1). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val add_last : 'a t -> 'a -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array
