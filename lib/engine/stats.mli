(** Online statistics and simple fixed-bucket histograms. *)

type t
(** A running summary: count, mean, variance (Welford), min, max, and —
    when created with [~keep_samples:true] — exact percentiles. *)

val create : ?keep_samples:bool -> unit -> t

val add : t -> float -> unit

val count : t -> int
val mean : t -> float
(** 0.0 when empty. *)

val stddev : t -> float
val min_value : t -> float
(** [nan] when empty. *)

val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]; requires [keep_samples];
    [nan] when empty. Linear interpolation between order statistics:
    [p = 0] is the minimum, [p = 100] the maximum, and a single-sample
    summary returns that sample for every [p].

    @raise Invalid_argument when [p] is outside [0,100] (or NaN), or
    when samples were not kept. *)

module Series : sig
  (** Time-stamped scalar series, e.g. the bandwidth-vs-time plots of
      Figures 7–9. *)

  type nonrec t

  val create : unit -> t
  val add : t -> Time.t -> float -> unit
  val to_list : t -> (Time.t * float) list

  val mean_after : t -> Time.t -> float
  (** Mean of the values sampled at or after the given instant — used
      to report sustained (post-warm-up) bandwidth. [nan] if none. *)
end
