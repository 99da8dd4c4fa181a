(** Virtual and physical addresses.

    The simulated machine follows the paper's testbed (Alpha 21164):
    8 KB base pages. Nemesis is a single-address-space system, so
    virtual page numbers are global. *)

type vaddr = int
(** Byte address in the single virtual address space. *)

type paddr = int
(** Byte address in physical memory. *)

val page_size : int
(** 8192 bytes. *)

val page_shift : int
(** 13. *)

val vpn_of_vaddr : vaddr -> int
(** Virtual page number containing the address. *)

val vaddr_of_vpn : int -> vaddr

val paddr_of_pfn : int -> paddr

val offset : vaddr -> int
(** Offset within the page. *)

val is_page_aligned : vaddr -> bool

val round_up_pages : int -> int
(** [round_up_pages bytes] is the number of pages needed to cover
    [bytes]. *)

val pp_vaddr : Format.formatter -> vaddr -> unit
