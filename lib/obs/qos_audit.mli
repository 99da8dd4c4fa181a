(** Online Quality-of-Service firewall auditor.

    The paper's central claim is that one domain's paging cannot
    perturb another's guaranteed CPU, frames or disk bandwidth. This
    module checks that claim while the system runs, instead of waiting
    for someone to re-plot a figure. Schedulers and the frame
    allocator feed it observations; it flags contract breaches as
    structured {!violation} events.

    {b Invariants audited}

    - {e CPU / USD undersupply}: a client that stayed backlogged for
      [patience] consecutive periods yet received less than
      [(1 - tolerance)] of its contracted slice in each. (A single
      short period can legitimately be lost to one non-preemptible
      transaction crossing the boundary — the paper's QoS granularity
      — so one bad period alone is not a breach.)
    - {e Memory overcommit}: the sum of frame guarantees exceeding
      main memory, which would make a guaranteed allocation
      unsatisfiable.
    - {e Revocation overdue}: a victim that failed to return frames by
      the revocation deadline [T].
    - {e Guarantee starved}: a guaranteed-frame allocation that failed
      outright — optimistic holdings starved a guaranteed one.

    Like {!Metrics}, the auditor is process-global state; call
    {!reset} between independent runs. Every recorded violation also
    bumps the ["qos.violations"] counter (label = violation class). *)

open Engine

type violation =
  | Cpu_undersupply of
      { dom : string; entitled : Time.span; got : Time.span; periods : int }
      (** Totals over the [periods] consecutive underserved periods. *)
  | Usd_undersupply of
      { stream : string; entitled : Time.span; got : Time.span; periods : int }
  | Mem_overcommit of { guaranteed : int; capacity : int }
  | Revocation_overdue of { dom : int; deadline : Time.t; finished : Time.t }
  | Guarantee_starved of { dom : int }

val pp_violation : Format.formatter -> violation -> unit

(** {2 Configuration} *)

val set_tolerance : float -> unit
(** Fraction of the slice a backlogged client may miss per period
    before the period counts as underserved (default 0.1). *)

val set_patience : int -> unit
(** Consecutive underserved periods before a violation is recorded
    (default 2, minimum 1). *)

(** {2 Observation feeds (called by instrumentation hooks)} *)

type resource = Cpu | Usd

val boundary :
  resource -> now:Time.t -> name:string -> entitled:Time.span ->
  got:Time.span -> backlogged:bool -> unit
(** One contract period boundary of a CPU client or a USD stream: the
    client was entitled to [entitled] and consumed [got]; [backlogged]
    means it had queued work for the whole period. *)

val mem_grant : now:Time.t -> dom:int -> guarantee:int -> capacity:int -> unit
(** A frames contract was admitted (or re-registered). Flags
    [Mem_overcommit] when the guarantees now sum past [capacity]. *)

val mem_release : dom:int -> unit

val revocation_done :
  now:Time.t -> dom:int -> deadline:Time.t -> ok:bool -> unit
(** A revocation round against [dom] finished at [now]; [ok] is false
    when the victim missed the protocol (timed out or returned too
    few frames). *)

val guarantee_starved : now:Time.t -> dom:int -> unit

(** {2 Queries} *)

val total : unit -> int
val ok : unit -> bool
(** [total () = 0]. *)

val by_class : unit -> (string * int) list
(** Violation counts per class, only non-zero classes, sorted. *)

val events : unit -> (Time.t * violation) list
(** Retained violations, oldest first (bounded ring; see
    {!events_dropped}). *)

val events_dropped : unit -> int

type summary = {
  audited_boundaries : int;  (** period boundaries examined *)
  violations : int;
  classes : (string * int) list;
  recent : (Time.t * violation) list;  (** at most the last 10 *)
}

val summarize : unit -> summary

val reset : unit -> unit
(** Forget violations, streaks and registered contracts; keeps
    tolerance/patience settings. *)
