(** Per-domain frame stacks.

    A system-allocated structure, writable by the owning domain,
    listing the physical frame numbers the domain owns ordered by
    importance: the {e top} of the stack holds the frame the domain is
    most prepared to have revoked. The frames allocator always revokes
    from the top, so a domain keeps its preferred revocation order by
    rearranging the stack (stretch drivers also use it to keep local
    notes about mappings, which here live in the drivers themselves).

    Backed by an intrusive doubly-linked list with a pfn -> node
    table: push, remove, promote and demote are all O(1), so revoking
    or remapping under hundreds of concurrent domains costs the same
    as under one. *)

type t

val create : unit -> t

val size : t -> int

val push : t -> int -> unit
(** Push a frame on top (most-revocable position). Raises
    [Invalid_argument] if already present. *)

val remove : t -> int -> bool
(** Remove a frame wherever it is; [false] if absent. *)

val top_k : t -> int -> int list
(** The [k] most-revocable frames, top first (may return fewer). *)

val move_to_top : t -> int -> unit
(** Mark a frame most revocable. Raises [Not_found] if absent. *)

val move_to_bottom : t -> int -> unit
(** Mark a frame least revocable (e.g. just mapped). *)

val to_list : t -> int list
(** Top (most revocable) first. *)
