(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit
    [Rng.t] so that runs are reproducible given a seed, and independent
    subsystems can be given split streams that do not interact. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent stream from the current state. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
