(** Simulated time.

    All simulation time is carried as an integer number of nanoseconds
    since the start of the run. A 63-bit [int] gives ~292 years of
    nanoseconds, far more than any experiment needs, while keeping
    arithmetic allocation-free. *)

type t = int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. Spans may be negative (e.g. the
    roll-over accounting in the USD scheduler tracks deficits as
    negative remaining time). *)

val zero : t

val ns : int -> span
(** [ns n] is a span of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_us_float : float -> span
(** [of_us_float x] converts a (possibly fractional) number of
    microseconds to a span, rounding to the nearest nanosecond. *)

val of_ms_float : float -> span

val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val add : t -> span -> t
val diff : t -> t -> span

val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Pretty-print an instant with an adaptive unit, e.g. ["1.250ms"]. *)

val pp_span : Format.formatter -> span -> unit
