(** Begin/end span timing over simulated time, with parent links.

    A span covers one stage of a larger operation — e.g. a single page
    fault decomposes into [fault] > [activation] > [mm.dispatch] >
    [usd.read] > [map] — and carries a label naming the domain it was
    executed for. A started span is a 7-word handle; [finish] copies it
    into a ring of columns allocated once when the module initialises
    (id, parent, start and end outside the OCaml heap, name and label
    as two string arrays), so recording a span allocates nothing more.
    The ring keeps the newest 65536 finished spans, in finish order,
    and counts the ones it drops. *)

type t
(** A started (possibly finished) span. *)

type record = {
  id : int;
  name : string;
  label : string;
  parent : int option;  (** id of the enclosing span *)
  t0 : Engine.Time.t;
  t1 : Engine.Time.t;
}

val none : t
(** No span: the parent of a root span, and the span of an
    uninstrumented operation. Finishing it records nothing. *)

val start : now:Engine.Time.t -> label:string -> parent:t -> string -> t
(** Open a span; [~parent:none] makes it a root. *)

val finish : now:Engine.Time.t -> t -> unit
(** Close the span and commit it to the ring; idempotent (later calls
    are ignored). *)

val id : t -> int

val finished : unit -> record list
(** Retained finished spans, oldest first. *)

val count : unit -> int
val dropped : unit -> int

val to_csv : unit -> string
(** [id,parent,name,label,start_ns,end_ns,duration_ns] rows, oldest
    first. *)

val reset : unit -> unit
(** Clear retained spans and restart ids from 0. *)
