(** Bounded FIFO IO channels.

    Clients communicate with the USD through FIFO buffering similar in
    operation to the `rbufs' scheme the paper cites: a channel has a
    fixed number of slots; a sender that finds the channel full blocks
    until a slot frees. Paging clients typically run with one or two
    outstanding requests (they do not know what they will fault on
    next); the file-system client of Figure 9 pipelines deeply. *)

type 'a t

val create : depth:int -> 'a t
(** [depth] must be positive. *)

val is_empty : 'a t -> bool

val send : 'a t -> 'a -> unit
(** Blocks while the channel is full. *)

val try_send : 'a t -> 'a -> bool

val recv : 'a t -> 'a
(** Blocks while the channel is empty. *)

val try_recv : 'a t -> 'a option
