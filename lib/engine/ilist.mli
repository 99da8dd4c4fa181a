(** Intrusive doubly-linked lists.

    A node is allocated once per element and handed back to the
    caller, who stores it alongside (or inside) the element; removal
    and repositioning through the node are O(1), with no scanning and
    no per-operation allocation. Iteration visits nodes front to back
    in whatever order pushes and moves have arranged, so a list that
    is only ever [push_back]ed iterates in insertion order — the
    property the schedulers rely on for deterministic trace replay.

    Nodes are single-membership: pushing a node that is already on a
    list raises [Invalid_argument]. A removed node may be pushed
    again. *)

type 'a t
type 'a node

val create : unit -> 'a t
val make_node : 'a -> 'a node

val active : 'a node -> bool
(** [active n] is true while [n] is linked into some list. *)

val length : 'a t -> int

val push_front : 'a t -> 'a node -> unit
val push_back : 'a t -> 'a node -> unit

val remove : 'a t -> 'a node -> unit
(** O(1). Raises [Invalid_argument] if the node is not linked. *)

val move_front : 'a t -> 'a node -> unit
val move_back : 'a t -> 'a node -> unit
(** O(1) reposition of a linked node within the same list. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
(** Front to back. [iter]/[fold]/[to_list] must not add or remove
    nodes mid-walk, except for the node currently visited. *)
