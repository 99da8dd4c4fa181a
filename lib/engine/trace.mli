(** Time-stamped trace buffers.

    The paper's Figures 7 and 8 include USD-scheduler traces recording
    every transaction, period-boundary allocation and lax-time charge.
    A ['a Trace.t] is a generic append-only buffer of [(time, 'a)]
    records used for exactly that. *)

type 'a t

val create : unit -> 'a t

val record : 'a t -> Time.t -> 'a -> unit

val length : 'a t -> int

val to_list : 'a t -> (Time.t * 'a) list

val between : 'a t -> Time.t -> Time.t -> (Time.t * 'a) list
(** Records with timestamp in [\[lo, hi)]. *)

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit
