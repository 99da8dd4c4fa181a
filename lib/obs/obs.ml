(** Per-domain observability: metrics, span tracing and the online
    QoS-firewall auditor.

    Everything here is process-global and off by default. Subsystems
    guard their instrumentation sites with [!Obs.enabled] so the
    disabled path costs one flag read; experiments that want
    telemetry do

    {[
      Obs.enabled := true;
      Obs.reset ();      (* fresh counters for this run *)
      ... run ...
      Obs.Metrics.to_json (), Obs.Qos_audit.summarize (), ...
    ]} *)

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
