(** Stretch access rights.

    Protection in Nemesis is at stretch granularity: each protection
    domain maps every valid stretch to a subset of
    {e read, write, execute, meta}. The [meta] right authorises
    changing protections and mappings on the stretch. *)

type t = { r : bool; w : bool; x : bool; m : bool }

val none : t
val read : t
val read_write : t
val all : t
(** Read, write, execute and meta. *)

val rw_meta : t

val subset : t -> t -> bool

val permits : t -> [ `Read | `Write | `Execute ] -> bool

val to_bits : t -> int
(** 4-bit encoding (r=1, w=2, x=4, m=8), used by the packed PTE. *)

val of_bits : int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** e.g. ["rw-m"]. *)
