(** Blok allocator for swap space.

    A {e blok} is a contiguous set of disk blocks that is a multiple of
    the page size. The paged stretch driver tracks its swap space as a
    bitmap of bloks: a singly linked list of bitmap structures,
    allocated first-fit, with a hint pointer to the earliest structure
    known to have free bloks — exactly the structure the paper
    describes. *)

type t

val create : nbloks:int -> t

val capacity : t -> int
val in_use : t -> int

val alloc : t -> int option
(** First-fit allocation; [None] when full. *)

val claim : t -> int -> bool
(** Mark a specific blok allocated — restoring a recovered slot
    assignment after a restart. [false] if it was already allocated
    (a collision in the recovered state). Raises [Invalid_argument]
    out of range. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] if the blok is not allocated. *)

val is_allocated : t -> int -> bool

val check_invariants : t -> unit
(** Internal-consistency check for tests: the use count matches the
    bitmaps and the hint never skips a structure with free bloks. *)
