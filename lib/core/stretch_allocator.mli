(** The stretch allocator (system domain).

    Allocates ranges of the single virtual address space. A successful
    request creates a stretch whose start and length are multiples of
    the page size, installs NULL mappings carrying the stretch id and
    the requested global rights (so that a first touch raises a
    classified fault), and grants the owner meta rights in its
    protection domain. *)

open Hw

type t

val create :
  Translation.t -> va_base:Addr.vaddr -> va_bytes:int -> t
(** Manage virtual addresses [\[va_base, va_base + va_bytes)]. Both
    must be page-aligned. *)

val alloc :
  t -> ?base:Addr.vaddr -> ?global:Rights.t -> owner_pdom:Pdom.t ->
  owner:int -> bytes:int -> unit -> (Stretch.t, string) result
(** Allocate a stretch of at least [bytes] (rounded up to whole
    pages). [base], if given, requests a specific page-aligned start
    address. [global] defaults to {!Rights.none} — accessibility is
    then granted per protection domain. The owner's pdom receives
    read/write/meta rights. *)

val destroy : t -> Stretch.t -> unit
(** Remove the stretch's page-table entries and return its range to
    the free pool. *)

val free_bytes : t -> int
