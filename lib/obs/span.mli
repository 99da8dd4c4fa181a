(** Begin/end span timing over simulated time, with parent links.

    A span covers one stage of a larger operation — e.g. a single page
    fault decomposes into [fault] > [activation] > [mm.dispatch] >
    [usd.read] > [map] — and carries a label naming the domain it was
    executed for. Finished spans land in a bounded drop-oldest
    {!Ring}, so a long run stays O(capacity) in memory. *)

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

val start :
  now:Engine.Time.t -> ?label:string -> ?parent:t -> string -> t
(** Open a span. [label] defaults to [""]. *)

val finish : now:Engine.Time.t -> t -> unit
(** Close the span and commit it to the buffer; idempotent (later
    calls are ignored). *)

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
