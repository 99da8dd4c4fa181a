(** The remote memory tier: a local RAM cache over N remote nodes
    over the disk, with replicated or erasure-coded stripes and no
    single point of failure.

    Each attached domain gets a {!store}: an LRU RAM cache of slot
    indices on top, the fleet's redundant node set below, and the
    domain's swapfile as the durability floor. Evictions demote cold
    pages over per-node {!Usnet.Link}s, faults promote them back.
    Journaled commits always write through, and a demotion no node
    accepts degrades to a plain disk write — tiering changes latency,
    never safety.

    {b One stripe path.} Each demoted page is split by the {!Ec}
    Reed–Solomon coder into [k] data + [m] parity shards placed on
    [k + m] distinct nodes chosen by a seeded rendezvous hash —
    [1 + m/k] times the page's bytes. The per-fleet {!redundancy}
    only picks the code: [Erasure {k; m}] is that code, and
    [Replicated r] is the [(k = 1, m = r - 1)] code, whose shards
    are whole-page copies — the primary is position 0. A one-node
    [Replicated 1] fleet is the plain tiered store (RAM cache → one
    remote node → disk) that the [remote] experiment pages through.
    Nodes key every entry by its stripe position
    ({!Remote_node.store} [~shard]).

    Stripe legs travel {e in parallel} (each on a transfer process of
    its own, demotes and reads both), so a stripe costs its slowest
    leg, not the sum of [k + m] serial transfers. The transfer
    processes are the fleet's and are reused: a leg wakes an idle one
    and spawns one only when none is idle. Reads gather the first
    [k] positions of the stripe in one parallel round (the systematic
    fast path needs no decode) and, per shard lost, widen the round
    into the parity — a {e degraded read} reconstructs from any [k]
    shards, served from remote memory, never the disk floor. At
    [k = 1] each round is one fetch, so a degraded read is a replica
    failover: the primary first, then the surviving copies in
    placement order. Only when more than [m] shards are lost does a
    fault fall back to the disk durability floor.

    {b Health.} Every node is reached over its own {!Usnet.Link};
    packets to a partitioned node (per
    {!Inject.node_reachable}) are never acked, and neither are packets
    the link's own fault plan ({!Inject.link}) drops. The sender waits
    the 1 ms ack deadline, retransmits three times on the
    deterministic {!backoff} ladder and then times out. Three
    consecutive timeouts quarantine the node: it stops being asked
    for pages, and a background process probes it every 50 ms,
    re-admitting it when a probe is answered (a healed partition). A
    served entry that fails
    its checksum ({!Inject.shard_corrupt}) is treated exactly like a
    lost one.

    {b Repair.} The same background process restores redundancy: each
    [repair_period] it walks the placement book {e hottest page
    first} — ordered by the fleet reads each page has served ({!heat};
    fleet state, so observability cannot move it) — so the pages
    domains are actually faulting on regain full redundancy before
    cold ones, and rebuilds up to [repair_budget] entries per round
    over the fleet's own repair link clients (a (20 ms, 2 ms)
    guarantee on every node link). A missing shard is reconstructed
    from any [k] live shards ([k] fetches + one push, the real price
    of parity repair; at [k = 1], one surviving copy) unless its old
    holder still serves it, in which case one fetch moves it.

    {b Membership.} Nodes can join and retire at run time:
    {!add_node} admits a standby node (declared at {!create} so its
    link clients exist from the start) into the placement ring, and
    {!retire_node} removes one; a join can also come from the chaos
    plan via {!Inject.node_join_due}.
    Rebalancing is rendezvous re-ranking: only pages whose top-[width]
    set involves the changed node move, and the moves are budgeted
    through the same repair loop (a {e migration} — the entry lived,
    it just moved — never enters the loss ledger). A retiring node
    keeps answering reads while it drains.

    {b Books.} Double-entry, the same three for every fleet:
    - [stores = acks] — every entry the placement book records was
      individually acknowledged by its node;
    - the packet ledger:
      [link_drops + unreachable = retransmits + frag_timeouts] —
      every packet that was not delivered was either retransmitted or
      abandoned;
    - the loss ledger:
      [lost_shards = reconstructions + rebuilds + disk_fallbacks] —
      every lost-shard observation (a lost copy, at [k = 1]) is
      answered exactly once: a degraded read reconstructed over it,
      the repair process rebuilt it, or the read fell back to the
      disk (fallback reads book one answer per shard they observed
      lost).

    {b Charging.} Every fragment a domain sends or receives burns
    that domain's own link-client slice, admitted under a (p,s,x,l)
    guarantee, so a thrashing tiered domain cannot steal network from
    its neighbours any more than it can steal disk. *)

open Engine

type redundancy =
  | Replicated of int
      (** [r] whole-page copies on [r] nodes: the
          [Erasure {k = 1; m = r - 1}] code *)
  | Erasure of { k : int; m : int }
      (** [k] data + [m] parity shards on [k + m] nodes; any [m]
          losses survived at [1 + m/k] times the storage *)

type t
(** The fleet: nodes, placement book, health state, repair process. *)

type store
(** One domain's view of the fleet — LRU RAM cache on top, the
    redundant node set below, the domain's swapfile as durability
    floor. Obtained from {!attach}, consumed via {!backing}. *)

type stats = private {
  mutable stores : int;  (** entries recorded in the placement book *)
  mutable acks : int;  (** node acknowledgements backing those entries *)
  mutable replica_skips : int;  (** writes not attempted (node quarantined) *)
  mutable replica_timeouts : int;  (** writes abandoned after the last retry *)
  mutable remote_fulls : int;  (** writes refused by a full node *)
  mutable lost_shards : int;
      (** shard-loss observations, any position (reads and repair) *)
  mutable rebuilds : int;  (** ... answered by the repair process *)
  mutable disk_fallbacks : int;
      (** ... answered by the disk floor (one per shard the
          falling-back read observed lost) *)
  mutable degraded_reads : int;
      (** reads that lost a shard and still gathered [k] (a replica
          failover at [k = 1]) *)
  mutable reconstructions : int;
      (** ... lost-shard observations answered by a degraded read *)
  mutable corrupt_shards : int;
      (** entries served but failing their checksum *)
  mutable migrations : int;
      (** entries moved by rebalancing (membership changes) — the
          entry lived, so no loss ledger entry *)
  mutable node_joins : int;  (** standby nodes admitted into membership *)
  mutable node_retires : int;  (** members retired out of the ring *)
  mutable retransmits : int;  (** fragments retried on the backoff ladder *)
  mutable link_drops : int;  (** packets the links' fault plans dropped *)
  mutable link_delays : int;  (** packets the links' fault plans delayed *)
  mutable unreachable : int;
      (** packets sent to a partitioned node *)
  mutable frag_timeouts : int;  (** packets abandoned after the last retry *)
  mutable quarantines : int;  (** nodes quarantined (streak of timeouts) *)
  mutable readmissions : int;  (** quarantined nodes probed back in *)
  mutable probes : int;
  mutable probe_failures : int;
  mutable wipes_applied : int;  (** {!Inject.node_wipe_due} wipes honoured *)
  mutable repair_rounds : int;
}
(** The fleet's counters; {!stats} returns a copy. *)

type node_health = {
  nh_name : string;
  nh_member : bool;  (** in the placement ring right now *)
  nh_used : int;  (** entries held (pages, or shards) *)
  nh_capacity : int;
  nh_quarantined : bool;
  nh_streak : int;  (** consecutive timeouts right now *)
  nh_quarantines : int;
  nh_readmissions : int;
  nh_stores : int;  (** entries this node acked over its lifetime *)
  nh_serves : int;  (** reads this node answered *)
}

type store_stats = private {
  mutable st_cache_hits : int;
  mutable st_fleet_hits : int;
      (** reads served by the fleet (incl. degraded) *)
  mutable st_fleet_misses : int;  (** reads of never-placed slots (disk) *)
  mutable st_promotes : int;
  mutable st_demotes : int;  (** evictions placed on enough nodes to recover *)
  mutable st_write_fallbacks : int;
      (** dirty evictions the fleet could not hold, written to disk *)
  mutable st_clean_skips : int;  (** clean evictions the fleet could not hold *)
  mutable st_lost_slots : int;
      (** slots dead with no surviving copy anywhere *)
}
(** One store's counters; {!store_stats} returns a copy. *)

val create :
  ?redundancy:redundancy ->
  ?standby:(string * Remote_node.t * Usnet.Link.t) list ->
  ?repair_period:Time.span ->
  ?repair_budget:int ->
  ?repair:bool ->
  seed:int ->
  nodes:(string * Remote_node.t * Usnet.Link.t) list ->
  Sim.t ->
  t
(** [create ~seed ~nodes sim] builds a fleet over [nodes] — each a
    [(name, node, link)] triple where [name] must be the link's
    {!Usnet.Link.name} (it keys the {!Inject} node-fault sites).
    [standby] nodes are fully wired (repair client, per-store
    clients) but start outside the placement ring, waiting for
    {!add_node} or a planned {!Inject.node_join_due}.

    Defaults: [redundancy = Replicated 2], [repair_period = 25ms],
    [repair_budget = 8] entries rebuilt per round and [repair = true]
    (spawn the background repair process; tests that want to drive
    rounds by hand pass [false] and call {!repair_round}).

    Raises [Invalid_argument] on an empty node list, a replica count
    [< 1], an invalid [(k, m)] (see {!Ec.make}), [k + m] exceeding
    the member count, or a refused repair-client admission. A
    replica count is clamped to the member count, so [Replicated r]
    runs [Erasure {k = 1; m = min r members - 1}]; the stripe width
    is then fixed for the fleet's lifetime (membership changes swap
    nodes in and out, never resize stripes). *)

val admit_clients :
  t ->
  name:string ->
  period:Time.span ->
  slice:Time.span ->
  ?extra:bool ->
  ?queue_depth:int ->
  ?laxity:Time.span ->
  unit ->
  (Usnet.Link.client array, Usnet.Link.admit_error) result
(** Admit one client per node link (members and standby — a later
    join needs no new admission) under the same (p, s, x, l)
    guarantee, in node order — what {!attach} consumes. On a refusal
    the already-admitted clients are retired and the error returned. *)

val attach :
  ?mode:Store.mode ->
  ?cache_pages:int ->
  ?label:string ->
  t ->
  clients:Usnet.Link.client array ->
  swap:Usbs.Sfs.swapfile ->
  unit ->
  store
(** Attach one domain: [clients] must be one admitted client per node
    in node order (see {!admit_clients}); pages are keyed at the
    nodes by the swapfile's name. Defaults: [mode = Write_through]
    (see {!Store.mode}), [cache_pages = 32], [label = "fleet"]. *)

val backing : store -> Backing.t
(** The store as a {!Backing.t} — what [Sd_paged.create ?backing] and
    [Workload.Paging_app.start ?backing] take. *)

val backoff : base:Time.span -> attempt:int -> Time.span
(** The deterministic retransmit ladder (the disk path's {!Usbs.Sfs}
    retry ladder at network scale): the [attempt]-th retry (0-based)
    backs off [base * 2^attempt], bounded at [8 * base] — 1/2/4/8 ms
    at the default 1 ms base. *)

val placement : t -> owner:string -> slot:int -> int array
(** The node indices the rendezvous hash assigns this page's stripe,
    shard 0 (the primary) first — deterministic in [(seed, member names,
    owner, slot)] alone, so tests can assert same seed → same
    placement, and a membership change re-ranks with minimal
    movement. *)

val node_names : t -> string array
(** All nodes, members and standby, in node order. *)

val member_names : t -> string array
(** The nodes currently in the placement ring. *)

val add_node : t -> name:string -> unit
(** Admit a standby node into the placement ring; the repair loop
    migrates entries onto it (rendezvous re-ranking, budgeted).
    Raises [Invalid_argument] on an unknown name or a current
    member. *)

val retire_node : t -> name:string -> unit
(** Remove a member from the placement ring; it keeps answering
    reads while the repair loop drains its entries to the re-ranked
    placement. Raises [Invalid_argument] on an unknown name, a
    non-member, or if the remaining members would not fit a stripe. *)

val repair_round : t -> unit
(** One synchronous fault-poll/probe/repair round — what the
    background process runs each [repair_period]. Exposed for tests
    ([repair = false]). *)

val stats : t -> stats
val health : t -> node_health list

val heat : t -> owner:string -> slot:int -> int
(** Fleet reads of this page so far — what orders the repair queue.
    Fed on every read of a page the fleet tracks, whatever
    {!Obs.enabled} says; [0] for pages never read from the fleet. *)

val store_stats : store -> store_stats

val store_totals : store list -> store_stats
(** The stores' counters summed field by field (all zero for no
    stores). *)

val storage_overhead : t -> float
(** Bytes held across the fleet's nodes relative to the pages
    tracked in the placement book: an entry is [1/k] of a page (a
    whole one for replicas). Intact [Replicated 2] measures 2.0;
    intact [Erasure {k = 4; m = 2}] measures 1.5. [0.0] when nothing
    is tracked. *)

val books_balanced : t -> bool
(** [stores = acks], the packet ledger
    [link_drops + unreachable = retransmits + frag_timeouts], and the
    loss ledger
    [lost_shards = reconstructions + rebuilds + disk_fallbacks]. *)
