(** Translation look-aside buffer model.

    Fully associative with FIFO (round-robin) replacement and address
    space numbers, loosely following the Alpha 21164 64-entry DTB.
    Entries cache whole PTEs; the MMU re-validates cached protection on
    each access, so the TLB only has to be invalidated when an entry it
    may cache is changed (unmap, protection change, FOR/FOW update). *)

type t

val create : ?entries:int -> unit -> t
(** Default 64 entries. *)

val lookup : t -> asn:int -> vpn:int -> Pte.t option

val insert : t -> asn:int -> vpn:int -> Pte.t -> unit

val invalidate : t -> vpn:int -> unit
(** Drop cached entries for a VPN across all address spaces (mappings
    are global in a single-address-space system). *)

val hits : t -> int
val misses : t -> int
