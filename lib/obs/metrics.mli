(** Process-wide registry of named, per-domain metrics.

    A metric is identified by a [name] (dot-separated, e.g.
    ["fault.latency_us"]) and a [label] naming the domain, stream or
    address-space it belongs to ([""] for system-wide metrics). Three
    kinds exist:

    - {b counters}: monotonically increasing integers;
    - {b gauges}: last-written integers (every gauge is a count or a
      flag);
    - {b histograms}: latency distributions over {!latency_bounds_us},
      with running moments from {!Engine.Stats}.

    Instrumentation writes through typed handles. The owner of a
    metric — a domain, a USD stream, a link client, a driver instance —
    makes its handles when it is created; metrics with no label are
    module constants. Making a handle touches no table: a handle's
    first write after each {!reset} registers (or joins) the cell for
    its name and label, and every later write goes straight to that
    cell. So the registry lists exactly the metrics written since the
    last reset, [reset] is O(1), and a handle made before a reset stays
    valid after it. Counter and gauge writes allocate nothing; a
    histogram sample costs only its boxed float. Call sites still guard
    with {!Switch.enabled}, so the disabled path costs one flag read. *)

(** {1 Handles} *)

type counter
type gauge
type histogram

val counter : ?label:string -> string -> counter
(** [counter ~label name]; [label] defaults to [""]. *)

val gauge : ?label:string -> string -> gauge
val histogram : ?label:string -> string -> histogram

val inc : counter -> unit
(** Increment a counter by one. *)

val add : counter -> int -> unit
(** Increment a counter by [n]. *)

val set : gauge -> int -> unit

val observe : histogram -> float -> unit
(** Add a sample to a histogram. *)

val latency_bounds_us : float array
(** Every histogram's bucket upper limits: 1us .. 1s, roughly
    log-spaced. *)

(** {1 Readers} *)

val counter_value : ?label:string -> string -> int
(** 0 when the counter does not exist. *)

val sum_labels : string -> int
(** Sum of a counter over every label it is registered under —
    per-domain attribution rolled up into a total (e.g. all tenants'
    ["share.hit"] counters). 0 when no label has the counter. *)

val gauge_value : ?label:string -> string -> int option

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

type value = Counter of int | Gauge of int | Histogram of hist_view

val snapshot : unit -> (string * string * value) list
(** Every registered metric as [(name, label, value)], sorted by name
    then label. *)

val labels_of : string -> string list
(** The labels under which [name] is registered, sorted. *)

val reset : unit -> unit
(** Drop every registered metric. Handles stay valid: each registers
    afresh on its next write. *)

val to_json : unit -> Json.t
(** The whole registry as a JSON array. *)

val to_csv : unit -> string
(** [name,label,kind,field,value] rows; histograms emit one row per
    bucket plus count/mean/min/max rows. *)
