(** Linear page table: one PTE per VPN, mapped on demand.

    Models the paper's production design: the main page table is a
    large array in the virtual address space, mapped on demand via a
    secondary table, and translation is a single dependent memory
    reference ([lookup_refs] is 1). Here the secondary table is a
    directory of 1,024-entry PTE pages. Every directory slot starts at
    one shared all-absent page that is never written; a slot gets its
    own page on its first present {!set}, so a table costs memory for
    the parts of the address space that stretches occupy, not for the
    whole of it. Storing {!Pte.absent} into an unmapped page does
    nothing. *)

type t

val create : ?va_bits:int -> unit -> t
(** [va_bits] (default 32) bounds the covered virtual address space at
    [2^va_bits] bytes. *)

val impl : t -> Page_table.impl

val lookup : t -> int -> Pte.t
val set : t -> int -> Pte.t -> unit
(** Both raise [Invalid_argument] for a VPN outside the covered
    space. *)
