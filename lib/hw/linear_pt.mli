(** Linear page table: one flat array indexed by VPN.

    Models the paper's production design — the main page table is a
    large array in the virtual address space; translation is a single
    dependent memory reference. *)

type t

val create : ?va_bits:int -> unit -> t
(** [va_bits] (default 32) bounds the covered virtual address space at
    [2^va_bits] bytes. *)

val impl : t -> Page_table.impl

val lookup : t -> int -> Pte.t
val set : t -> int -> Pte.t -> unit
