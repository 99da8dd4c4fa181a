(** Disk QoS specifications.

    The USD accepts guarantees of the form [(p, s, x, l)]: the client
    may perform disk transactions totalling at most [s] within every
    period [p]; [x] marks eligibility for slack time; [l] is the
    {e laxity} — how long the client may hold its place on the runnable
    queue with no transaction pending (solving the short-block problem
    for paging clients, which cannot pipeline). *)

open Engine

type t = {
  period : Time.span;  (** p *)
  slice : Time.span;   (** s *)
  extra : bool;        (** x — always [false] in the paper's runs *)
  laxity : Time.span;  (** l *)
}

val make :
  period:Time.span -> slice:Time.span -> ?extra:bool -> ?laxity:Time.span ->
  unit -> t
(** Defaults: [extra = false], [laxity = 10ms] (the value used in the
    paper's experiments). Raises [Invalid_argument] on non-positive
    period/slice or slice > period. *)

val share : t -> float
(** s/p. *)
