(** Packed page-table entries.

    A PTE is packed into a single immediate [int] so that a linear page
    table is one flat [int array] (as on the real machine, where the
    8 GB linear table is an array of 64-bit PTEs). An entry exists for
    every page of every allocated stretch; freshly allocated stretches
    get "NULL mappings" — entries that carry the stretch id and global
    protection but are invalid, so first touch faults.

    Dirty and referenced are implemented the Alpha way (footnote 8 of
    the paper): FOR/FOW (fault-on-read / fault-on-write) bits are set
    by software and cleared by the PALcode DFault routine, which also
    sets the corresponding referenced/dirty bit. *)

type t = int

val absent : t
(** The table value meaning "no entry": the address is not part of any
    stretch (an access yields an unallocated-address fault). *)

val is_absent : t -> bool

val make : sid:int -> global:Rights.t -> t
(** A NULL mapping for a page of stretch [sid]: invalid, no frame. *)

val valid : t -> bool
(** Is there a physical frame behind this entry? *)

val pfn : t -> int
(** Frame number; meaningless unless [valid]. *)

val sid : t -> int
(** Stretch id owning this page (0 = none). *)

val global : t -> Rights.t
(** Global (default) protection for the page, used when the accessing
    protection domain has no explicit entry for the stretch. *)

val dirty : t -> bool
val referenced : t -> bool
val fow : t -> bool
val for_ : t -> bool

val set_valid : t -> pfn:int -> t
(** Install a frame; sets FOR/FOW so first read/write fault to the
    PALcode emulation that maintains referenced/dirty. *)

val set_invalid : t -> t
(** Remove the frame but keep the NULL mapping (sid + protection). *)

val with_global : t -> Rights.t -> t
val set_dirty : t -> t
val set_referenced : t -> t
val clear_fow : t -> t
val clear_for : t -> t

val max_sid : int
val max_pfn : int
