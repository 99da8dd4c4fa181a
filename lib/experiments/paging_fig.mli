(** Figures 7 and 8: paging-in / paging-out under disk guarantees.

    Three applications with 25, 50 and 100 ms per 250 ms disk
    guarantees (10%, 20%, 40%), no slack eligibility, 10 ms laxity,
    each with 16 KB of physical memory, a 4 MB stretch and 16 MB of
    swap. The paper's result: sustained progress in the ratio 1:2:4,
    with a USD scheduler trace showing per-client transactions, period
    allocations and laxity lines never exceeding 10 ms. *)

open Engine

type app_report = {
  app_name : string;
  share : float;             (** guaranteed fraction of the disk *)
  sustained_mbit : float;
  series : (Time.t * float) list;  (** watch-thread samples *)
  txns : int;
  mean_txn_ms : float;
  lax_total_ms : float;
  max_lax_ms : float;
  allocations : int;
  page_ins : int;
  page_outs : int;
}

type result = {
  mode : Workload.Paging_app.mode;
  apps : app_report list;    (** ordered smallest share first *)
  ratios : float list;       (** throughput relative to the smallest *)
  trace_window : (Time.t * Usbs.Usd.event) list;
      (** one second of USD trace for display *)
  window_start : Time.t;
}

val run :
  ?mode:Workload.Paging_app.mode -> ?duration:Time.span ->
  ?laxity:Time.span -> ?usd_rollover:bool ->
  ?shares_ms:int list -> ?seed:int -> unit -> result
(** Defaults: paging-in, 240 s, laxity 10 ms, shares 25/50/100 ms per
    250 ms. *)

val print : result -> unit

val print_series : result -> unit
(** ASCII chart of progress (Mbit/s) against time — the top halves of
    Figures 7 and 8. *)

val print_trace : result -> unit
(** ASCII rendering of the one-second USD scheduler trace window
    ('#' transaction, '.' laxity, '|' allocation; one row per
    client). *)
