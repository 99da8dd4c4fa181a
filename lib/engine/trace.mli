(** Time-stamped trace logs.

    The paper's Figures 7 and 8 include USD-scheduler traces recording
    every transaction, period-boundary allocation and lax-time charge.
    A ['a Trace.t] is an append-only log of such records, kept whole
    for the length of a run so that every record can be checked.

    A record is stored as a row of ints, not as a value: the time,
    then a header holding the writer's [kind] bits and the number of
    fields, then the fields. Rows sit in [int array] chunks that grow
    from small to a fixed cap and are never copied, so a record costs
    its row's words and recording allocates nothing but a new chunk
    now and then. Reading rebuilds each record's value with the
    decoder the log was created with. *)

type 'a t

val create : (int -> int array -> int -> 'a) -> 'a t
(** [create decode] is an empty log whose rows read back as
    [decode kind row i]: [kind] is the bits the row was recorded with,
    and its fields are [row.(i)], [row.(i + 1)], ... in the order they
    were recorded. *)

(** [recordN t time ~kind f1 ... fN] appends a row of [N] fields.
    [kind] must be non-negative. *)

val record0 : 'a t -> Time.t -> kind:int -> unit
val record1 : 'a t -> Time.t -> kind:int -> int -> unit
val record2 : 'a t -> Time.t -> kind:int -> int -> int -> unit
val record3 : 'a t -> Time.t -> kind:int -> int -> int -> int -> unit
val record4 : 'a t -> Time.t -> kind:int -> int -> int -> int -> int -> unit

val length : 'a t -> int

val to_list : 'a t -> (Time.t * 'a) list

val between : 'a t -> Time.t -> Time.t -> (Time.t * 'a) list
(** Records with timestamp in [\[lo, hi)]. *)

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit
