(** Quantifying Figure 2: external paging versus self-paging.

    A latency-sensitive "light" application touches a burst of swapped
    pages every 100 ms (a continuous-media-like reference pattern),
    while a "heavy" application pages out as fast as it can (dirty
    evictions, ≈11 ms disk writes). Two configurations:

    - {b self-paging}: each application resolves its own faults under
      its own disk guarantee (light 10%, heavy 20%);
    - {b external pager}: both are backed by a single pager domain
      with one disk guarantee (50%) servicing faults first-come
      first-served — the microkernel structure of Figure 2.

    The paper's argument, measured: under the external pager the light
    application's burst latency inflates and jitters (it queues behind
    the hog, which also spends the pager's resources, not its own);
    under self-paging it is isolated. *)

open Engine

type latency_stats = {
  bursts : int;
  mean_ms : float;
  p95_ms : float;
  max_ms : float;
}

type config_result = {
  light_latency : latency_stats;
  heavy_mbit : float;
  light_cpu_ms : float;   (** CPU consumed by the light domain *)
  heavy_cpu_ms : float;
  pager_cpu_ms : float;   (** 0 for self-paging *)
  fault_hists : (string * Obs.Metrics.hist_view) list;
      (** per-domain fault-latency histograms (us); empty when
          observability was off during the run *)
  audit : Obs.Qos_audit.summary option;
      (** QoS-audit verdict; [None] when observability was off *)
}

type result = { self_paging : config_result; external_pager : config_result }

val run : ?duration:Time.span -> unit -> result
(** The light app touches one page every 10 ms. *)

val print : result -> unit
