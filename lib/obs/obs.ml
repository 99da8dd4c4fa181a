(** Per-domain observability: metrics, span tracing and the online
    QoS-firewall auditor.

    Everything here is process-global and off by default. Subsystems
    guard their instrumentation sites with [!Obs.enabled] so the
    disabled path costs one flag read. With it on, a write allocates
    nothing beyond what it records: metrics are written through
    handles their owners make at creation ({!Metrics}), and a span
    costs only its handle, finished into a ring of columns filled in
    place ({!Span}). Experiments that want telemetry do

    {[
      Obs.enabled := true;
      Obs.reset ();      (* fresh counters for this run *)
      ... run ...
      Obs.Metrics.to_json (), Obs.Qos_audit.summarize (), ...
    ]}

    A handle made before a [reset] stays valid: its next write
    registers it in the fresh registry. *)

module Ring = Ring
module Metrics = Metrics
module Span = Span
module Qos_audit = Qos_audit

let enabled = Switch.enabled

let set_enabled v = Switch.enabled := v

(* Clear every collector: the registry, the span buffer and the
   auditor (contracts, streaks and violations). *)
let reset () =
  Metrics.reset ();
  Span.reset ();
  Qos_audit.reset ()
