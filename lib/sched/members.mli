(** A scheduler's clients indexed by their dense {!Edf.client} id, so
    that finding the client behind an EDF decision, or behind a
    boundary hook call, is one array read with no hashing. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> Edf.client -> 'a -> unit
(** Record the scheduler's client for an admitted EDF client. *)

val find : 'a t -> Edf.client -> 'a
(** Raises [Not_found] for a client not added, or removed. *)

val remove : 'a t -> Edf.client -> unit
