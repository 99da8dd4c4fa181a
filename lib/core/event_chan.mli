(** Nemesis event channels.

    Events are the kernel's only notification primitive: a transmission
    is a few sanity checks followed by the increment of a 64-bit value,
    after which the receiving domain will, at some future activation,
    observe that the count moved and run the notification handler it
    attached to the endpoint. *)

type t

val create : ?name:string -> unit -> t

val send : t -> unit
(** Increment the receive count and prod the receiver. *)

val count : t -> int
(** Total events ever sent. *)

val pending : t -> int

val ack : t -> int
(** Consume all pending events; returns how many there were. *)

val attach : t -> (unit -> unit) -> unit
(** Install the receiver's kernel-level prod (the domain runtime's
    "mark me runnable / queue an activation" hook). Replaces any
    previous hook. *)
