(** The policy-compare experiment.

    Reruns the paging figure once per (policy x access pattern) cell:
    the probe application pages through a 256-page stretch over 48
    guaranteed frames under the given {!Policy.Spec.t}, while a fixed
    seed-policy contender shares the disk. Demonstrates the paper's
    §5 claim concretely: replacement, read-ahead and write-behind are
    a per-domain choice, and a domain's choice shifts only its own
    miss rate — the contender's throughput and the QoS audit stay
    untouched. *)

open Engine

type row = {
  policy : string;
  pattern : string;  (** "seq" | "rand" | "hot" *)
  accesses : int;  (** measured-loop page accesses *)
  faults : int;  (** demand page-ins + write-behind rescues *)
  miss_rate : float;  (** faults / accesses *)
  demand_ins : int;
  prefetched : int;
  prefetch_hits : int;
  prefetch_waste : int;
  page_outs : int;
  evictions : int;
  wb_flushes : int;
  rescues : int;
  mean_fault_us : float;
  p99_fault_us : float;
  app_mbit : float;
  contender_mbit : float;
  violations : int;  (** QoS-audit violations over the whole cell run *)
}

type result = { duration : Time.t; rows : row list }

val run :
  ?duration:Time.t -> ?seed:int -> ?policies:Policy.Spec.t list -> unit ->
  result
(** Default policies: {!Policy.Spec.presets}. Each cell runs in a
    fresh system for [duration] (default 60 s simulated). Forces
    observability on for its own runs and restores the previous
    setting. *)

val ok : result -> bool
(** The acceptance verdict: every cell made progress ([accesses > 0])
    and the QoS auditor flagged no violation in any of them. *)

val print : result -> unit
val to_json : result -> Json.t
