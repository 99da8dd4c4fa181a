(** The RamTab: per-frame ownership and usage table.

    A simple flat structure (deliberately simple enough to be used by
    low-level trap code, per the paper) recording for every frame of
    main memory its owning domain, its logical frame width and whether
    it is currently unused, mapped, or nailed. The frames allocator
    maintains ownership; the low-level translation system uses it to
    validate [map]/[unmap] calls. *)

type state = Unused | Mapped | Nailed

type t

val create : nframes:int -> t

val nframes : t -> int

val set_owner : t -> pfn:int -> owner:int -> width:int -> unit
(** Record allocation of a frame to a domain. [width] is the
    log2(bytes) of the logical frame (page_shift for base pages). *)

val clear_owner : t -> pfn:int -> unit
(** Frame returned to the free pool. Raises [Invalid_argument] if the
    frame is still mapped or nailed. *)

val owner : t -> pfn:int -> int option
(** Owning domain id, or [None] for free frames. *)

val width : t -> pfn:int -> int

val state : t -> pfn:int -> state
val set_state : t -> pfn:int -> state -> unit

val refs : t -> pfn:int -> int
(** Number of shared mappings of this frame (0 for a private frame).
    Grown for PR 7's stacked pagers: a frame mapped copy-on-write or
    into a shared segment carries one reference per domain mapping so
    that revocation and kill of the sharer and sharee stay
    independently sound. *)

val is_shared : t -> pfn:int -> bool
(** [refs > 0]. *)

val add_ref : t -> pfn:int -> unit
(** Count one more shared mapping. The frame must have an owner.
    Raises [Invalid_argument] otherwise. *)

val drop_ref : t -> pfn:int -> int
(** Drop one shared mapping, returning the number remaining. Raises
    [Invalid_argument] on underflow (a double free). *)

val is_available_for_mapping : t -> pfn:int -> domain:int -> bool
(** The validation used by the low-level [map] call: the calling
    domain owns the frame and it is not currently mapped or nailed. *)
