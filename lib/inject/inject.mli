(** Deterministic, seeded fault injection.

    The chaos layer of the reproduction: a process-global {e plan}
    describes which faults to inject — bad-blok ranges on the disk,
    random transient media errors and latency spikes inside an LBA
    region, stalls of named USD clients, delivery delay/drop on named
    event channels, and frame-allocator pressure spikes — and the
    instrumented subsystems ({!Disk.Disk_model}, {!Usbs.Usd},
    {!Usbs.Sfs}, {!Core.Event_chan}, {!Core.Domains}) consult it at
    their injection points.

    Like {!Obs}, the subsystem is off by default and every hook is
    guarded by {!enabled}, so the disarmed path costs one flag read
    and injecting nothing is bit-for-bit the seed behaviour.

    {b Determinism.} All randomness comes from one {!Engine.Rng}
    stream seeded by the plan; in a simulated run the sequence of hook
    calls is a pure function of the seed, so two runs with the same
    plan produce identical injections (asserted by the chaos
    determinism test).

    {b Accounting.} Every injected {e media error} must be answered by
    exactly one recovery action in the layer that caught it: a retry
    ({!note_retried}), a bad-blok remap ({!note_remapped}), a
    degradation such as splitting a coalesced transaction or falling
    back to synchronous writeback ({!note_degraded}), or data loss
    that ultimately kills the touching thread ({!note_killed}). The
    chaos experiment checks the books:
    [injected = retried + remapped + degraded + killed].
    Latency spikes, stalls, channel drops/delays and pressure bursts
    need no recovery and are tallied separately. *)

open Engine

type disk_op = Read | Write

type blok_fault = {
  bf_first : int;  (** first LBA of the bad range *)
  bf_len : int;  (** number of bloks *)
  bf_op : disk_op option;  (** [None] = both directions *)
  bf_transient : int option;
      (** [Some k]: the first [k] transactions touching each blok of
          the range fail, later ones succeed (a marginal sector that
          needs retries); [None]: permanently bad. *)
}

type region_fault = {
  rf_first : int;
  rf_len : int;
  rf_read_error : float;  (** transient-error probability per read *)
  rf_write_error : float;
  rf_spike : float;  (** latency-spike probability per transaction *)
  rf_spike_span : Time.span;
}

type stall = {
  st_rate : float;  (** probability per consultation, 1.0 = always *)
  st_span : Time.span;
}

type chan_fault = {
  cf_drop : float;  (** probability a notification is dropped *)
  cf_delay : float;  (** probability it is delayed instead *)
  cf_delay_span : Time.span;
}

type link_fault = {
  lf_drop : float;  (** probability a packet is dropped on the wire *)
  lf_delay : float;  (** probability it is delayed instead *)
  lf_delay_span : Time.span;
}

type pressure = {
  pr_period : Time.span;  (** time between allocation bursts *)
  pr_hold : Time.span;  (** how long a burst holds its frames *)
}

type zpool_pressure = {
  zp_period : Time.span;  (** time between budget-shrink bursts *)
  zp_hold : Time.span;  (** how long the shrunken budget holds *)
  zp_shrink : int;  (** frames taken off the compressed-tier budget *)
}
(** Seeded bursts that shrink the compressed-memory tier's frame
    budget mid-run (consumed by [Share.Zpool]): each burst forces the
    zpool to shed compressed pages down to the reduced budget, then
    restores it after [zp_hold]. *)

type crash_point = {
  cp_after : Time.t;  (** armed from this virtual time on *)
  cp_site : string option;
      (** only writes issued on behalf of this swap / site fire the
          point; [None] = any site *)
  cp_first : int;  (** LBA window; [cp_len = 0] matches any LBA *)
  cp_len : int;
}
(** A one-shot virtual-time crash point. The first durable write
    matching the time / site / LBA-window predicates is torn: an
    arbitrary seeded prefix of its bloks persists and the writer
    observes a crash. Each point fires at most once per {!arm} /
    {!reset}. *)

type node_fault = {
  nf_node : string;  (** the remote node's link name ({!Usnet.Link.name}) *)
  nf_wipe_at : Time.t option;
      (** node RAM contents lost at this virtual time (node stays up) *)
  nf_partitions : (Time.t * Time.t) list;
      (** [[(from, until); ...]] windows during which the node is
          unreachable; contents survive and it answers again after *)
  nf_join_at : Time.t option;
      (** a standby node joins the fleet membership at this time *)
  nf_corrupt : float;
      (** probability per shard/copy fetch that the served bytes fail
          their checksum — detected corruption, treated as a lost
          shard by the tier layer *)
}
(** Node-scoped faults for the replicated/erasure-coded remote tier:
    a node can be wiped (amnesia) or partitioned away for a window; a
    standby node can join the membership; and served shards can
    arrive corrupted. Wipes, partitions and joins are driven by
    virtual time, not dice, so a plan names exactly which node fails
    when; corruption is probabilistic on the plan's seeded stream. *)

val node_fault :
  ?wipe_at:Time.t ->
  ?partitions:(Time.t * Time.t) list ->
  ?join_at:Time.t ->
  ?corrupt:float ->
  string ->
  node_fault
(** [node_fault name] with nothing planned; each optional argument
    arms one fault site on the named node. *)

type plan = {
  seed : int;
  blok_faults : blok_fault list;
  regions : region_fault list;
  stalls : (string * stall) list;  (** keyed by USD client / site name *)
  chans : (string * chan_fault) list;  (** keyed by event-channel name *)
  links : (string * link_fault) list;  (** keyed by network-link name *)
  pressure : pressure option;  (** consumed by the chaos gremlin *)
  zpool_pressure : zpool_pressure option;  (** consumed by [Share.Zpool] *)
  crashes : crash_point list;
  node_faults : node_fault list;  (** consumed by [Tier.Fleet] *)
}

val default_plan : plan
(** Seed 0, nothing injected. A plan is built as a record value —
    [{ default_plan with seed; regions = [ ... ] }] — so a mistyped
    field is a compile error. *)

val enabled : bool ref
(** Do not write directly; use {!arm}/{!disarm}. *)

val arm : plan -> unit
(** Install the plan, reseed the RNG, clear counters, enable hooks. *)

val disarm : unit -> unit
(** Disable every hook (the plan is kept for inspection). *)

val reset : unit -> unit
(** Reseed from the armed plan and clear counters — two [arm]-[reset]
    runs of the same workload inject identically. *)

val plan : unit -> plan

(** {2 Hooks (called by instrumented subsystems)} *)

type disk_outcome =
  | Pass
  | Spike of Time.span  (** serve, but this much slower *)
  | Media_error of { bad_lba : int; persistent : bool }

val disk : op:disk_op -> lba:int -> nblocks:int -> disk_outcome
(** Consulted once per disk transaction. Counts what it injects. *)

val stall : site:string -> Time.span option
(** A stall to insert at the named site (USD client, revocation
    handler, ...), if the plan targets it and the dice say so. *)

type chan_outcome = Deliver | Drop | Delay of Time.span

val chan : name:string -> chan_outcome

val link : name:string -> chan_outcome
(** Consulted once per packet by instrumented senders on the named
    network link ({!Usnet.Link.name}): [Drop] means the wire lost the
    packet (the sender must retransmit or fall back), [Delay] that it
    arrives late. Tallied separately from media errors — link faults
    are answered by the tier layer's own books, not the
    {!accounted} equation. *)

val node_reachable : name:string -> now:Time.t -> bool
(** Consulted per packet by the replicated tier: [false] while the
    named node is inside a partition window — the packet is lost and
    the sender must retransmit, fail over or quarantine. Each
    partition window is tallied once, on first observation. *)

val node_wipe_due : name:string -> now:Time.t -> bool
(** One-shot per arm/reset: [true] on the first consultation at/after
    the node's [nf_wipe_at], and the caller must empty the node's page
    pool. *)

val node_join_due : name:string -> now:Time.t -> bool
(** One-shot per arm/reset: [true] on the first consultation at/after
    the node's [nf_join_at] — the fleet must admit the standby node
    into membership and rebalance. *)

val shard_corrupt : name:string -> bool
(** Consulted once per shard/copy fetched from the named node:
    [true] means the served bytes failed their checksum (a detected
    bit-flip). The tier layer treats the shard as lost — reconstruct,
    rebuild or fall back — answered by its own books, outside the
    {!accounted} equation. *)

val pressure : unit -> pressure option

val zpool_pressure : unit -> zpool_pressure option

val crash_write :
  now:Time.t -> site:string -> lba:int -> nblocks:int -> int option
(** Consulted by durable writers ({!Usbs.Sfs} data writes,
    {!Usbs.Journal} appends) just before the bytes would hit the
    platter. [Some k] means a crash point fired: exactly the first
    [k] bloks of the transaction persist ([0 <= k < nblocks], so the
    write is always torn) and the caller must abort with a crashed
    status. Crashes are tallied separately from media errors and do
    not enter the {!accounted} equation — recovery happens at
    remount, not in-line. *)

(** {2 Recovery accounting (called by the hardened layers)} *)

type recovery
(** A recovering site's class and its [inject.<outcome>.<class>]
    counters. *)

val recovery : string -> recovery
(** [recovery cls] names a site's class (e.g. ["sfs.read"]); each site
    makes its classes once, as module constants. *)

val note_retried : recovery -> unit
(** One injected error answered by a retry. *)

val note_remapped : recovery -> unit
val note_degraded : recovery -> unit
val note_killed : recovery -> unit

(** {2 Introspection} *)

type tally = private {
  mutable injected_errors : int;  (** media errors injected *)
  mutable spikes : int;
  mutable stalls_injected : int;
  mutable chan_drops : int;
  mutable chan_delays : int;
  mutable link_drops : int;  (** packets lost on an injected lossy link *)
  mutable link_delays : int;
  mutable node_wipes : int;  (** node wipes applied (amnesia, node stays up) *)
  mutable node_partitions : int;  (** partition windows entered *)
  mutable node_joins : int;  (** standby nodes joined into membership *)
  mutable shard_corruptions : int;
      (** checksum-detected corrupt shard serves *)
  mutable pressure_bursts : int;
  mutable zpool_bursts : int;
      (** compressed-tier budget-shrink bursts fired *)
  mutable crashes : int;  (** crash points fired (torn writes) *)
  mutable retried : int;
  mutable remapped : int;
  mutable degraded : int;
  mutable killed : int;
}
(** The injector's counters; {!tally} returns a copy. *)

val tally : unit -> tally

val accounted : unit -> bool
(** [injected_errors = retried + remapped + degraded + killed] — every
    injected media error met exactly one recovery action. Only
    meaningful once in-flight I/O has drained. *)

val note_pressure_burst : unit -> unit
(** Called by the chaos gremlin once per burst. *)

val note_zpool_burst : shed:int -> unit
(** Called by the zpool once per budget-shrink burst; [shed] is how
    many frames the shrink forced out. Tallied outside the
    {!accounted} equation — shedding drops clean cache copies whose
    durable image is already below, so no media error needs
    answering. *)

val by_class : unit -> (string * int) list
(** Injection counts per class (e.g. ["disk.write.persistent"]),
    sorted by class name. *)
