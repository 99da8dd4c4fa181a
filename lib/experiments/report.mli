(** Plain-text report helpers shared by the experiment printers. *)

val heading : string -> unit

val table : header:string list -> string list list -> unit
(** Column-aligned table with a header row. *)

val fopt : float option -> string
(** "n/a" for [None], two decimals otherwise. *)

val f2 : float -> string
val f1 : float -> string

val chart : unit_label:string -> (string * (float * float) list) list -> unit
(** Multi-series ASCII chart, 72 columns by 12 rows: each series is
    (label, [(x, y); ...]).
    Series are drawn with distinct marks ('*', 'o', '+', 'x', ...); the
    y-axis is scaled to the data, the x-axis to the common range. *)

val hist_table : (string * Obs.Metrics.hist_view) list -> unit
(** One row per (label, histogram): count, mean, p50, p95, max, in
    microseconds. *)

val audit_section : string -> Obs.Qos_audit.summary option -> unit
(** Print a QoS-audit verdict section; prints nothing for [None] (the
    run was not instrumented). *)
