(** Progress sampling: the paper's "watch thread".

    Wakes up every [period] (5 s in the experiments), reads a byte
    counter and logs throughput in Mbit/s for that window. *)

open Engine

type t

val start :
  Sim.t -> ?name:string -> period:Time.span -> bytes:(unit -> int) -> unit ->
  t

val series : t -> Stats.Series.t
(** (sample time, Mbit/s over the preceding window). *)

val sustained : t -> ?after:Time.t -> unit -> float
(** Mean Mbit/s of samples at or after [after] (default: second sample
    onwards, skipping warm-up). *)
