(** The crash-recovery experiment: crash consistency of the User-Safe
    Backing Store and restart of a self-paging domain.

    Boots a small machine with the SFS's write-ahead intent journal
    mounted, carrying:

    - {b victim} — a restartable paging application continuously
      dirtying a 48-page stretch through a journaled swapfile;
    - {b clean1}, {b clean2} — ordinary paging applications on the same
      backing store, the control group.

    Each round arms one seeded, one-shot crash point scoped to the
    victim's swap — alternating between its {e data extent} (a torn
    multi-blok page write: an arbitrary seeded prefix of the bloks
    reaches the platter) and the {e journal region} (a torn intent
    record) — waits for the victim to die of it, then:

    + remounts the backing store: the journal is replayed, the free
      map and per-swap remap/assignment tables rebuilt, the torn tail
      quarantined — {e twice}, asserting byte-identical snapshots
      (recovery is idempotent);
    + verifies every journal-committed page slot still carries its
      durable stamp (a Commit record is appended only after its data
      landed, and committed slots are never rewritten in place);
    + respawns the victim under its original admission contract,
      reattaches its swapfile by name, restores the committed page
      image and faults it back in from swap.

    The verdict: one crash per round, zero committed pages lost, zero
    free-map conflicts, idempotent replay, every incarnation revived,
    and {e zero} QoS violations attributed to the bystanders. *)

type round_report = {
  rr_index : int;
  rr_target : string;  (** ["data"] or ["journal"] *)
  rr_crashes : int;  (** crash points fired (must be 1) *)
  rr_replayed : int;  (** valid journal records replayed at remount *)
  rr_torn : int;  (** torn records quarantined *)
  rr_conflicts : int;  (** free-map placement conflicts (must be 0) *)
  rr_idempotent : bool;  (** remounting twice gave identical snapshots *)
  rr_committed : int;  (** committed (page, slot) pairs recovered *)
  rr_verified : int;  (** of those, slots with their stamp intact *)
  rr_lost : int;  (** committed - verified (must be 0) *)
  rr_restored : int;  (** pages the restarted driver re-adopted *)
  rr_revived : bool;  (** the restarted incarnation survived read-back *)
}

type result = {
  seed : int;
  rounds : round_report list;
  total_replayed : int;
  total_torn : int;
  total_restored : int;
  total_lost : int;
  clean_violations : int;  (** must be 0 *)
  audit : Obs.Qos_audit.summary;
}

val run : ?seed:int -> ?rounds:int -> unit -> result
(** Enables {!Obs}, resets collectors and runs [rounds] (default 4)
    crash/remount/restart rounds. *)

val ok : result -> bool

val print : result -> unit
val to_json : result -> Json.t
