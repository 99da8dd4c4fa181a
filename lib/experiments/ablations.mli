(** Ablations of the design choices the paper calls out (DESIGN.md
    section "Ablations"). *)

open Engine

(** {2 A-laxity: the short-block problem} *)

type laxity_result = {
  with_laxity : (string * float * int) list;
      (** (app, Mbit/s, txns) with l = 10 ms *)
  without_laxity : (string * float * int) list;
      (** same with l = 0 — plain EDF idles a client with no pending
          transaction until its next allocation, so paging clients
          collapse towards one transaction per period *)
  points : (int * float) list;
      (** (laxity ms, total paging Mbit/s across the three clients)
          for l = 0, 1, 2, 5, 10, 25 ms *)
}

val run_laxity : ?duration:Time.span -> unit -> laxity_result
(** One Figure-7 run per swept l; the on/off rows are the sweep's
    l = 10 ms and l = 0 runs. *)

val print_laxity : laxity_result -> unit
(** The on/off table. *)

val print_laxity_sweep : laxity_result -> unit
(** The sweep table. *)

(** {2 A-rollover: accounting for overruns} *)

type rollover_result = {
  with_rollover_share : float;
      (** long-run disk share achieved by a client guaranteed 10%
          whose every transaction overruns (≈11 ms writes) *)
  without_rollover_share : float;
  guaranteed_share : float;
}

val run_rollover : ?duration:Time.span -> unit -> rollover_result
val print_rollover : rollover_result -> unit

(** {2 A-pt: linear vs guarded page tables} *)

type pt_result = {
  linear_dirty_us : float;
  guarded_dirty_us : float;
  linear_trap_us : float;
  guarded_trap_us : float;
  dirty_ratio : float;  (** paper: guarded ≈3x slower *)
}

val run_pt : unit -> pt_result
val print_pt : pt_result -> unit

(** {2 A-slack: x-flag slack redistribution} *)

type slack_result = {
  extra_client_mbit : float;   (** 10% guarantee, x = true *)
  extra_client_share : float;  (** achieved share of disk time *)
  victim_mbit_alone : float;   (** 40% client without the x client *)
  victim_mbit_with_extra : float;
}

val run_slack : ?duration:Time.span -> unit -> slack_result
val print_slack : slack_result -> unit

(** {2 A-stream: the stream-paging extension} *)

type stream_result = {
  rates : (int * float * int) list;
      (** (readahead, sustained Mbit/s, total disk transactions) for a
          single paging-in client with a fixed 10% guarantee *)
}

val run_stream : ?duration:Time.span -> unit -> stream_result
val print_stream : stream_result -> unit

(** {2 A-revoke: the revocation protocol} *)

type revoke_result = {
  transparent_count : int;
  intrusive_count : int;
  intrusive_latency_ms : float;
      (** time for a guaranteed allocation that had to revoke *)
  uncooperative_killed : bool;
      (** a domain that ignores revocation notifications is killed *)
  killed_requester_satisfied : bool;
}

val run_revoke : unit -> revoke_result
val print_revoke : revoke_result -> unit
