(** The chaos experiment: QoS firewalling under injected faults.

    Boots a small machine (2 MB = 256 frames) carrying five tenants:

    - {b victim} — a paging application whose swap extent is carpeted
      with injected faults (permanently-bad bloks, random transient
      media errors, latency spikes), whose USD client is stalled and
      whose fault event channel drops/delays notifications;
    - {b clean1}, {b clean2} — identical paging applications on clean
      extents, the control group;
    - {b doomed} — a domain hogging optimistic frames whose revocation
      handler is stalled past the 100 ms deadline, so the first
      revocation round kills it (the paper's protocol-flunk path);
    - {b press} — a frame-pressure gremlin that bursts guaranteed
      allocations per the plan, forcing revocation storms.

    The run asserts the paper's claim the hard way: with all of that
    going on, the QoS auditor must attribute {e zero} violations to the
    clean domains, the injection books must balance
    ([injected = retried + remapped + degraded + killed]), and the
    doomed domain's frames must all be back in the allocator's pool
    (verified against the RamTab). *)

open Engine
open Core

type domain_report = {
  dr_name : string;
  dr_mbit : float;  (** sustained throughput ([nan] if still warming) *)
  dr_accesses : int;  (** page accesses in the measured loop *)
  dr_violations : int;  (** QoS violations attributed to this domain *)
}

type result = {
  seed : int;
  duration : Time.span;
  victim : domain_report;
  victim_info : Sd_paged.info;
  cleans : domain_report list;
  tally : Inject.tally;
  accounted : bool;
      (** every injected media error met exactly one recovery action *)
  injected_by_class : (string * int) list;
  doomed_killed : bool;
  doomed_frames_reclaimed : bool;
      (** no RamTab frame still owned by the doomed domain *)
  intrusive_revocations : int;
  clean_violations : int;  (** must be 0 *)
  audit : Obs.Qos_audit.summary;
}

val plan : seed:int -> first:int -> nblocks:int -> Inject.plan
(** The victim's injection plan, scoped to its swap extent
    [(first, nblocks)] — exposed so a test can pin it field for
    field. *)

val run : ?seed:int -> ?duration:Time.span -> unit -> result
(** Enables {!Obs}, resets collectors, arms the injection plan derived
    from [seed] and runs for [duration] (default 30 s) plus a 2 s
    injection-free drain so the recovery books settle. *)

val ok : result -> bool
(** The acceptance verdict: clean domains unperturbed, books balanced,
    doomed domain killed and reclaimed, and faults actually injected. *)

val print : result -> unit
val to_json : result -> Json.t
