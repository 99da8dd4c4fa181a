(** Process-wide registry of named, per-domain metrics.

    A metric is identified by a [name] (dot-separated, e.g.
    ["fault.latency_us"]) and a [label] naming the domain, stream or
    address-space it belongs to ([""] for system-wide metrics). Three
    kinds exist:

    - {b counters}: monotonically increasing integers;
    - {b gauges}: last-written floats;
    - {b histograms}: fixed-bucket latency/size distributions built on
      {!Engine.Stats} for the running moments.

    All mutators auto-register on first use, so instrumentation sites
    need no set-up; they are cheap enough for the fault hot path (one
    hash lookup) but callers should still guard with {!Switch.enabled}
    so the disabled path costs a single flag read. *)

val inc : ?label:string -> string -> unit
(** Increment a counter by one. *)

val add : ?label:string -> string -> int -> unit
(** Increment a counter by [n]. *)

val set_gauge : ?label:string -> string -> float -> unit

val observe : ?label:string -> ?bounds:float array -> string -> float -> unit
(** Add a sample to a histogram. [bounds] (strictly increasing bucket
    upper limits; default {!latency_bounds_us}) is only consulted when
    the histogram is first created. *)

val latency_bounds_us : float array
(** Default histogram buckets: 1us .. 1s, roughly log-spaced. *)

val counter_value : ?label:string -> string -> int
(** 0 when the counter does not exist. *)

val sum_labels : string -> int
(** Sum of a counter over every label it is registered under —
    per-domain attribution rolled up into a total (e.g. all tenants'
    ["share.hit"] counters). 0 when no label has the counter. *)

val gauge_value : ?label:string -> string -> float option

(** An immutable view of a histogram, for reports and tests. *)
type hist_view = {
  hv_count : int;
  hv_mean : float;
  hv_min : float;  (** [nan] when empty *)
  hv_max : float;  (** [nan] when empty *)
  hv_buckets : (float * int) array;
      (** (upper bound, samples <= bound); the final bucket has bound
          [infinity] and holds the overflow. *)
}

val hist_view : ?label:string -> string -> hist_view option

val hist_quantile : hist_view -> float -> float
(** [hist_quantile v q] with [q] in [0,1]: the upper bound of the
    bucket holding the [q]-th sample — an upper estimate of the true
    quantile, [nan] when empty. *)

type value = Counter of int | Gauge of float | Histogram of hist_view

val snapshot : unit -> (string * string * value) list
(** Every registered metric as [(name, label, value)], sorted by name
    then label. *)

val labels_of : string -> string list
(** The labels under which [name] is registered, sorted. *)

val reset : unit -> unit
(** Drop every registered metric. *)

val to_json : unit -> Json.t
(** The whole registry as a JSON array. *)

val to_csv : unit -> string
(** [name,label,kind,field,value] rows; histograms emit one row per
    bucket plus count/mean/min/max rows. *)
