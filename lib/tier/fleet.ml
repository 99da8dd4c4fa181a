open Engine

let page_bytes = 8192 (* mirrors the USBS page size; Sfs keeps it internal *)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

type redundancy = Replicated of int | Erasure of { k : int; m : int }

type node = {
  nd_idx : int;
  nd_name : string;
  nd_remote : Remote_node.t;
  nd_link : Usnet.Link.t;
  nd_repair : Usnet.Link.client; (* fleet-owned probe/repair client *)
  mutable nd_member : bool; (* in the placement ring right now *)
  mutable nd_streak : int; (* consecutive timeouts *)
  mutable nd_quarantined : bool;
  mutable nd_next_probe : Time.t;
  mutable nd_quarantines : int;
  mutable nd_readmissions : int;
  mutable nd_stores : int; (* entries this node acked *)
  mutable nd_serves : int; (* reads this node answered *)
}

(* The fleet's counters and each store's, one record each: [stats] and
   [store_stats] hand out copies. *)
type stats = {
  mutable stores : int;
  mutable acks : int;
  mutable replica_skips : int;
  mutable replica_timeouts : int;
  mutable remote_fulls : int;
  mutable lost_shards : int;
  mutable rebuilds : int;
  mutable disk_fallbacks : int;
  mutable degraded_reads : int;
  mutable reconstructions : int;
  mutable corrupt_shards : int;
  mutable migrations : int;
  mutable node_joins : int;
  mutable node_retires : int;
  mutable retransmits : int;
  mutable link_drops : int;
  mutable link_delays : int;
  mutable unreachable : int;
  mutable frag_timeouts : int;
  mutable quarantines : int;
  mutable readmissions : int;
  mutable probes : int;
  mutable probe_failures : int;
  mutable wipes_applied : int;
  mutable repair_rounds : int;
}

type store_stats = {
  mutable st_cache_hits : int;
  mutable st_fleet_hits : int;
  mutable st_fleet_misses : int;
  mutable st_promotes : int;
  mutable st_demotes : int;
  mutable st_write_fallbacks : int;
  mutable st_clean_skips : int;
  mutable st_lost_slots : int;
}

let no_store_stats () =
  { st_cache_hits = 0; st_fleet_hits = 0; st_fleet_misses = 0;
    st_promotes = 0; st_demotes = 0; st_write_fallbacks = 0;
    st_clean_skips = 0; st_lost_slots = 0 }

(* Health and transfer constants: a node is quarantined after
   [timeouts_to_quarantine] consecutive timeouts and probed every
   [probe_period]; a lost packet is retried [link_retries] times on
   the {!backoff} ladder whose base is the [ack_deadline]; the fleet's
   own probe/repair traffic rides a (p, s) = [repair_guarantee]
   client on every node link. *)
let timeouts_to_quarantine = 3
let probe_period = Time.ms 50
let link_retries = 3
let ack_deadline = Time.ms 1
let repair_guarantee = (Time.ms 20, Time.ms 2)

type t = {
  sim : Sim.t;
  seed : int;
  ec : Ec.code; (* replicas are the k = 1 code *)
  width : int; (* entries placed per page: k + m *)
  repair_period : Time.span;
  repair_budget : int;
  nodes : node array; (* members first, then standby *)
  (* the placement book: pages the fleet believes it holds, keyed by
     [(owner, slot)], mapped to the node index per stripe position
     (position = shard index, keyed so at the node). Recorded only
     when enough entries were acked to recover the page. Repair
     mutates entries in place as it migrates shards. *)
  pages : (string * int, int array) Hashtbl.t;
  (* page heat: fleet reads per [(owner, slot)], the repair queue's
     hot-first order — fleet state, so observability cannot move it *)
  heat : (string * int, int ref) Hashtbl.t;
  counts : stats;
}

type node_health = {
  nh_name : string;
  nh_member : bool;
  nh_used : int;
  nh_capacity : int;
  nh_quarantined : bool;
  nh_streak : int;
  nh_quarantines : int;
  nh_readmissions : int;
  nh_stores : int;
  nh_serves : int;
}

type store = {
  fl : t;
  mode : Store.mode;
  label : string;
  swap : Usbs.Sfs.swapfile;
  clients : Usnet.Link.client array; (* one per node, node order *)
  owner : string;
  cache_cap : int;
  lru : int Ilist.t; (* front = least recently used *)
  lnodes : (int, int Ilist.node) Hashtbl.t;
  evicting : (int, unit) Hashtbl.t;
  disk_valid : bool array;
  dead : bool array;
  tally : store_stats;
}

let metric name = if !Obs.enabled then Obs.Metrics.inc ("fleet." ^ name)

let smetric st name =
  if !Obs.enabled then Obs.Metrics.inc ~label:st.owner ("fleet." ^ name)

let node_gauges nd =
  if !Obs.enabled then begin
    let g n v = Obs.Metrics.set_gauge ~label:nd.nd_name ("fleet.node." ^ n) v in
    g "used_pages" (float_of_int (Remote_node.used_pages nd.nd_remote));
    g "member" (if nd.nd_member then 1.0 else 0.0);
    g "quarantined" (if nd.nd_quarantined then 1.0 else 0.0);
    g "streak" (float_of_int nd.nd_streak)
  end

(* Bytes of one entry on the wire: one shard (a whole page at k = 1). *)
let xfer_len t = Ec.shard_length t.ec ~page_bytes

let heat t ~owner ~slot =
  match Hashtbl.find_opt t.heat (owner, slot) with Some r -> !r | None -> 0

let note_heat t ~owner ~slot =
  match Hashtbl.find_opt t.heat (owner, slot) with
  | Some r -> incr r
  | None -> Hashtbl.replace t.heat (owner, slot) (ref 1)

(* ------------------------------------------------------------------ *)
(* Placement: seeded rendezvous (highest-random-weight) hashing        *)

(* A splitmix-style finaliser over the 63-bit int; constants fit in
   OCaml's native int. Deterministic in its argument alone. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x4cf5ad432745937 land max_int in
  let x = x lxor (x lsr 27) in
  let x = x * 0x1d8e4e27c47d124 land max_int in
  x lxor (x lsr 31)

let weight t ~node_name ~owner ~slot =
  mix
    (mix (t.seed lxor Hashtbl.hash node_name)
    lxor (Hashtbl.hash owner * 0x9e3779b9)
    lxor (slot * 0x85ebca6b))

(* Every member node scores the page; the [width] highest win (the
   highest is the primary / shard 0). A pure function of (seed,
   member names, owner, slot), so a restarted fleet over the same
   membership recomputes the same book — and a membership change
   re-ranks with minimal movement: pages whose top [width] set does
   not involve the joined/retired node keep their placement. *)
let placement t ~owner ~slot =
  let scored = ref [] in
  Array.iter
    (fun nd ->
      if nd.nd_member then
        scored :=
          (weight t ~node_name:nd.nd_name ~owner ~slot, nd.nd_idx) :: !scored)
    t.nodes;
  let scored =
    List.sort (fun (wa, ia) (wb, ib) -> compare (wb, ib) (wa, ia)) !scored
  in
  Array.of_list
    (List.filteri (fun n _ -> n < t.width) scored |> List.map snd)

let node_names t = Array.map (fun nd -> nd.nd_name) t.nodes

let member_names t =
  Array.of_list
    (Array.to_list t.nodes
    |> List.filter (fun nd -> nd.nd_member)
    |> List.map (fun nd -> nd.nd_name))

let member_count t =
  Array.fold_left (fun n nd -> if nd.nd_member then n + 1 else n) 0 t.nodes

(* ------------------------------------------------------------------ *)
(* Node health and membership                                          *)

let quarantine t nd =
  if not nd.nd_quarantined then begin
    nd.nd_quarantined <- true;
    nd.nd_quarantines <- nd.nd_quarantines + 1;
    t.counts.quarantines <- t.counts.quarantines + 1;
    nd.nd_next_probe <- Time.add (Sim.now t.sim) probe_period;
    metric "quarantine";
    node_gauges nd
  end

let note_timeout t nd =
  nd.nd_streak <- nd.nd_streak + 1;
  if nd.nd_streak >= timeouts_to_quarantine then quarantine t nd

let note_ok nd = nd.nd_streak <- 0

let readmit t nd =
  nd.nd_quarantined <- false;
  nd.nd_streak <- 0;
  nd.nd_readmissions <- nd.nd_readmissions + 1;
  t.counts.readmissions <- t.counts.readmissions + 1;
  metric "readmit";
  node_gauges nd

let find_node t name =
  Array.to_list t.nodes |> List.find_opt (fun nd -> nd.nd_name = name)

let apply_join t nd =
  nd.nd_member <- true;
  t.counts.node_joins <- t.counts.node_joins + 1;
  metric "node_join";
  node_gauges nd

let apply_retire t nd =
  nd.nd_member <- false;
  t.counts.node_retires <- t.counts.node_retires + 1;
  metric "node_retire";
  node_gauges nd

let add_node t ~name =
  match find_node t name with
  | None -> invalid_arg ("Fleet.add_node: unknown node " ^ name)
  | Some nd ->
      if nd.nd_member then
        invalid_arg ("Fleet.add_node: already a member: " ^ name);
      apply_join t nd

let retire_node t ~name =
  match find_node t name with
  | None -> invalid_arg ("Fleet.retire_node: unknown node " ^ name)
  | Some nd ->
      if not nd.nd_member then
        invalid_arg ("Fleet.retire_node: not a member: " ^ name);
      if member_count t - 1 < t.width then
        invalid_arg
          ("Fleet.retire_node: would leave fewer members than the stripe \
            width: " ^ name);
      apply_retire t nd

(* Faults are applied lazily: before any fleet operation consults a
   node's contents or the placement, honour pending wipes (a crash
   implies a wipe — the RAM went with the node) and membership
   changes from the chaos plan. Joins land before retires so a plan
   that swaps a node in and another out in the same instant never
   dips below the stripe width. *)
let poll_faults t =
  let now = Sim.now t.sim in
  Array.iter
    (fun nd ->
      if Inject.node_wipe_due ~name:nd.nd_name ~now then begin
        Remote_node.wipe nd.nd_remote;
        t.counts.wipes_applied <- t.counts.wipes_applied + 1;
        metric "wipe";
        node_gauges nd
      end;
      if (not nd.nd_member) && Inject.node_join_due ~name:nd.nd_name ~now then
        apply_join t nd)
    t.nodes;
  Array.iter
    (fun nd ->
      if
        nd.nd_member && member_count t > t.width
        && Inject.node_retire_due ~name:nd.nd_name ~now
      then apply_retire t nd)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Link transfers                                                      *)

(* MTU-sized fragments of one [len]-byte entry, smallest last (per
   node link). *)
let fragments nd len =
  let mtu = (Usnet.Link.params nd.nd_link).Usnet.Net_params.mtu in
  let n = (len + mtu - 1) / mtu in
  List.init n (fun i -> if i = n - 1 then len - ((n - 1) * mtu) else mtu)

(* The Sfs retry ladder at network scale: the [n]-th retransmit of a
   packet backs off [base * 2^n], bounded at [8 * base] so a long
   retry budget degenerates to a steady (still deterministic) pulse
   rather than an unbounded stall. With the default 1 ms base the
   ladder is the familiar 1/2/4/8 ms. *)
let backoff ~base ~attempt = base * (1 lsl min attempt 3)

(* One packet towards [nd] on [client]. The transmit burns the
   client's slice whether or not the far end is reachable — the
   sender cannot know — then the packet is lost if the node is
   crashed/partitioned ({!Inject.node_reachable}) or the link's own
   fault plan drops it. Lost packets retransmit on the {!backoff}
   ladder, [retries] times, then time out. The sender learns of a
   loss when the ack deadline passes, and books it together with its
   answer (retransmit or timeout), so the packet ledger balances at
   every instant. *)
let send_frag t nd client ~retries bytes =
  let rec attempt left n =
    match Usnet.Link.transmit nd.nd_link client ~bytes with
    | Error `Retired -> Error `Timeout
    | Ok () ->
        let reachable =
          Inject.node_reachable ~name:nd.nd_name ~now:(Sim.now t.sim)
        in
        let delivered =
          reachable
          &&
          match Inject.link ~name:(Usnet.Link.name nd.nd_link) with
          | Inject.Deliver -> true
          | Inject.Delay d ->
              t.counts.link_delays <- t.counts.link_delays + 1;
              Proc.sleep d;
              true
          | Inject.Drop -> false
        in
        if delivered then Ok ()
        else begin
          (* waited the ack deadline in vain *)
          Proc.sleep ack_deadline;
          if reachable then t.counts.link_drops <- t.counts.link_drops + 1
          else t.counts.unreachable <- t.counts.unreachable + 1;
          if left > 0 then begin
            t.counts.retransmits <- t.counts.retransmits + 1;
            metric "retransmit";
            Proc.sleep (backoff ~base:ack_deadline ~attempt:n);
            attempt (left - 1) (n + 1)
          end
          else begin
            t.counts.frag_timeouts <- t.counts.frag_timeouts + 1;
            metric "frag_timeout";
            Error `Timeout
          end
        end
  in
  attempt retries 0

let send_frags t nd client frags =
  let rec go = function
    | [] -> Ok ()
    | b :: rest -> (
        match send_frag t nd client ~retries:link_retries b with
        | Ok () -> go rest
        | Error _ as e -> e)
  in
  go frags

(* Fan [jobs] out as child processes and wait for them all. A stripe
   touches every node at once, but each leg rides a distinct node
   link under a distinct client of the same domain, so the domain is
   still charged per link while the stripe costs its slowest leg, not
   the sum of k + m serial transfers — without this a (4, 2) stripe
   pays ~6x the replicated path's latency per fault and queues
   collapse under load. Spawn order is fixed and the sim's event loop
   is deterministic, so same-seed runs stay byte-identical. *)
let in_parallel t jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
      List.map (fun job -> Proc.spawn ~name:"fleet.xfer" t.sim job) jobs
      |> List.iter Proc.join

(* Push one entry (copy or shard) to [nd]: fragments out, node
   service, store. Health is noted here; the caller classifies the
   outcome. *)
let push_page t nd client ~shard ~owner ~slot =
  match send_frags t nd client (fragments nd (xfer_len t)) with
  | Error `Timeout ->
      note_timeout t nd;
      `Timeout
  | Ok () -> (
      Proc.sleep Remote_node.service_time;
      note_ok nd;
      match Remote_node.store nd.nd_remote ~shard ~owner ~slot with
      | Ok () ->
          t.counts.acks <- t.counts.acks + 1;
          nd.nd_stores <- nd.nd_stores + 1;
          `Acked
      | Error `Remote_full -> `Full)

(* Pull one entry back from [nd]: 64-byte request out, node service,
   fragments back — all on [client]'s guarantee. [`Stale] is a miss
   reply: the node answered (health-wise it is fine) but no longer
   holds the entry. *)
let fetch_page t nd client ~shard ~owner ~slot =
  match send_frag t nd client ~retries:link_retries 64 with
  | Error `Timeout ->
      note_timeout t nd;
      `Timeout
  | Ok () ->
      Proc.sleep Remote_node.service_time;
      if not (Remote_node.holds nd.nd_remote ~shard ~owner ~slot) then begin
        note_ok nd;
        `Stale
      end
      else (
        match send_frags t nd client (fragments nd (xfer_len t)) with
        | Ok () ->
            note_ok nd;
            `Ok
        | Error `Timeout ->
            note_timeout t nd;
            `Timeout)

(* Fetch plus checksum verification: the {!Inject.shard_corrupt} site
   fires once per entry actually served, and a detected bit-flip is
   treated exactly like a lost entry — reconstruct or rebuild; never
   silently returned. *)
let fetch_shard t nd client ~shard ~owner ~slot =
  match fetch_page t nd client ~shard ~owner ~slot with
  | `Ok ->
      if Inject.shard_corrupt ~name:nd.nd_name then begin
        t.counts.corrupt_shards <- t.counts.corrupt_shards + 1;
        metric "corrupt_shard";
        `Corrupt
      end
      else `Ok
  | (`Stale | `Timeout) as e -> e

(* ------------------------------------------------------------------ *)
(* Probe / repair                                                      *)

let probe t nd =
  t.counts.probes <- t.counts.probes + 1;
  metric "probe";
  match send_frag t nd nd.nd_repair ~retries:0 64 with
  | Ok () ->
      Proc.sleep Remote_node.service_time;
      readmit t nd
  | Error `Timeout ->
      t.counts.probe_failures <- t.counts.probe_failures + 1;
      nd.nd_next_probe <- Time.add (Sim.now t.sim) probe_period

let probe_due t =
  let now = Sim.now t.sim in
  Array.iter
    (fun nd -> if nd.nd_quarantined && now >= nd.nd_next_probe then probe t nd)
    t.nodes

(* The book entry is re-checked by physical equality after every
   transfer: the owning domain may have overwritten the page while
   bytes were on the wire (drop + re-demote installs a fresh array),
   in which case the rebuilt entry is stale and must not be stored. *)
let book_fresh t ~reps ~owner ~slot =
  match Hashtbl.find_opt t.pages (owner, slot) with
  | Some r when r == reps -> true
  | _ -> false

(* Materialise the entry for stripe position [p] at [dst], over the
   fleet's own repair clients.

   Cheap path first: if position [p]'s recorded holder still serves
   that very entry, one fetch + one push moves it — this is what makes
   membership rebalancing "minimal movement". Otherwise the entry is
   reconstructed from any [k] live shards: [k] shard fetches plus one
   shard push, the real price of parity repair (at k = 1, one
   surviving copy). *)
let rebuild_shard t ~reps ~owner ~slot ~p ~dst =
  let live i = not t.nodes.(i).nd_quarantined in
  let holds q i =
    Remote_node.holds t.nodes.(i).nd_remote ~shard:q ~owner ~slot
  in
  let push () =
    if not (book_fresh t ~reps ~owner ~slot) then `Stale
    else
      match push_page t dst dst.nd_repair ~shard:p ~owner ~slot with
      | `Acked ->
          t.counts.stores <- t.counts.stores + 1;
          metric "store";
          `Acked
      | (`Full | `Timeout) as e -> e
  in
  let i = reps.(p) in
  if i <> dst.nd_idx && live i && holds p i then begin
    let src = t.nodes.(i) in
    match fetch_shard t src src.nd_repair ~shard:p ~owner ~slot with
    | (`Timeout | `Stale | `Corrupt) as e -> e
    | `Ok -> push ()
  end
  else begin
    let k = Ec.k t.ec in
    let srcs = ref [] and n = ref 0 in
    Array.iteri
      (fun q i ->
        if !n < k && q <> p && live i && holds q i then begin
          incr n;
          srcs := (q, i) :: !srcs
        end)
      reps;
    if !n < k then `No_source
    else begin
      let rec pull = function
        | [] -> push ()
        | (q, i) :: rest -> (
            let src = t.nodes.(i) in
            match fetch_shard t src src.nd_repair ~shard:q ~owner ~slot with
            | `Ok -> pull rest
            | (`Timeout | `Stale | `Corrupt) as e -> e)
      in
      pull (List.rev !srcs)
    end
  end

let repair_round t =
  t.counts.repair_rounds <- t.counts.repair_rounds + 1;
  poll_faults t;
  probe_due t;
  let budget = ref t.repair_budget in
  (* Demand-driven order: hottest pages first, with the (owner, slot)
     key as a deterministic tie-break. *)
  let heat (owner, slot) = heat t ~owner ~slot in
  let book =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pages []
    |> List.sort (fun (ka, _) (kb, _) ->
           let ha = heat ka and hb = heat kb in
           if ha <> hb then compare hb ha else compare ka kb)
  in
  List.iter
    (fun ((owner, slot), reps) ->
      if !budget > 0 then begin
        let want = placement t ~owner ~slot in
        for p = 0 to t.width - 1 do
          if !budget > 0 then begin
            let cur = reps.(p) and tgt = want.(p) in
            let cur_nd = t.nodes.(cur) and tgt_nd = t.nodes.(tgt) in
            let cur_has =
              (not cur_nd.nd_quarantined)
              && Remote_node.holds cur_nd.nd_remote ~shard:p ~owner ~slot
            in
            if (not (cur_has && cur = tgt)) && not tgt_nd.nd_quarantined
            then begin
              decr budget;
              match rebuild_shard t ~reps ~owner ~slot ~p ~dst:tgt_nd with
              | `Acked ->
                  if cur_has && cur <> tgt then begin
                    (* rebalance: the entry lived, it just moved *)
                    Remote_node.drop cur_nd.nd_remote ~shard:p ~owner ~slot;
                    t.counts.migrations <- t.counts.migrations + 1;
                    metric "migrate"
                  end
                  else begin
                    (* a lost shard observed and answered here *)
                    t.counts.lost_shards <- t.counts.lost_shards + 1;
                    t.counts.rebuilds <- t.counts.rebuilds + 1;
                    metric "shard_rebuild"
                  end;
                  reps.(p) <- tgt
              | `No_source | `Full | `Timeout | `Stale | `Corrupt -> ()
            end
          end
        done
      end)
    book;
  Array.iter node_gauges t.nodes

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(redundancy = Replicated 2) ?(standby = [])
    ?(repair_period = Time.ms 25) ?(repair_budget = 8) ?(repair = true) ~seed
    ~nodes sim =
  if nodes = [] then invalid_arg "Fleet.create: empty node list";
  let members = List.length nodes in
  (* r whole-page copies are the (k = 1, m = r - 1) code *)
  let ec =
    match redundancy with
    | Replicated r ->
        if r < 1 then invalid_arg "Fleet.create: replicas must be >= 1";
        Ec.make ~k:1 ~m:(min r members - 1)
    | Erasure { k; m } ->
        let c = Ec.make ~k ~m in
        (* Ec.make validated the (k, m) ranges *)
        if k + m > members then
          invalid_arg "Fleet.create: erasure needs k + m member nodes";
        c
  in
  let period, slice = repair_guarantee in
  let mk_node member i (name, remote, link) =
    if name <> Usnet.Link.name link then
      invalid_arg
        (Printf.sprintf "Fleet.create: node %s does not match its link %s"
           name (Usnet.Link.name link));
    let repair_client =
      match
        Usnet.Link.admit link ~name:(name ^ ".repair") ~period ~slice
          ~extra:true ()
      with
      | Ok c -> c
      | Error e ->
          invalid_arg
            ("Fleet.create: repair client refused: "
            ^ Usnet.Link.admit_error_message e)
    in
    { nd_idx = i;
      nd_name = name;
      nd_remote = remote;
      nd_link = link;
      nd_repair = repair_client;
      nd_member = member;
      nd_streak = 0;
      nd_quarantined = false;
      nd_next_probe = Time.zero;
      nd_quarantines = 0;
      nd_readmissions = 0;
      nd_stores = 0;
      nd_serves = 0 }
  in
  let all =
    List.mapi (mk_node true) nodes
    @ List.mapi (fun i n -> mk_node false (members + i) n) standby
  in
  let t =
    { sim;
      seed;
      ec;
      width = Ec.width ec;
      repair_period;
      repair_budget;
      nodes = Array.of_list all;
      pages = Hashtbl.create 256;
      heat = Hashtbl.create 256;
      counts =
        { stores = 0; acks = 0; replica_skips = 0; replica_timeouts = 0;
          remote_fulls = 0; lost_shards = 0; rebuilds = 0; disk_fallbacks = 0;
          degraded_reads = 0; reconstructions = 0; corrupt_shards = 0;
          migrations = 0; node_joins = 0; node_retires = 0; retransmits = 0;
          link_drops = 0; link_delays = 0; unreachable = 0; frag_timeouts = 0;
          quarantines = 0; readmissions = 0; probes = 0; probe_failures = 0;
          wipes_applied = 0; repair_rounds = 0 } }
  in
  if repair then
    ignore
      (Proc.spawn ~name:"fleet.repair" sim (fun () ->
           let rec loop () =
             Proc.sleep t.repair_period;
             repair_round t;
             loop ()
           in
           loop ()));
  t

let admit_clients t ~name ~period ~slice ?extra ?queue_depth ?laxity () =
  let admitted = ref [] in
  let rec go i =
    if i = Array.length t.nodes then
      Ok (Array.of_list (List.rev !admitted))
    else
      let nd = t.nodes.(i) in
      match
        Usnet.Link.admit nd.nd_link
          ~name:(name ^ "@" ^ nd.nd_name)
          ~period ~slice ?extra ?queue_depth ?laxity ()
      with
      | Ok c ->
          admitted := c :: !admitted;
          go (i + 1)
      | Error e ->
          List.iteri
            (fun j c -> Usnet.Link.retire t.nodes.(i - 1 - j).nd_link c)
            !admitted;
          Error e
  in
  go 0

let attach ?(mode = Store.Write_through) ?(cache_pages = 32)
    ?(label = "fleet") t ~clients ~swap () =
  if cache_pages < 1 then invalid_arg "Fleet.attach: cache_pages must be >= 1";
  if Array.length clients <> Array.length t.nodes then
    invalid_arg "Fleet.attach: need one admitted client per node";
  let cap = Usbs.Sfs.page_capacity swap in
  { fl = t;
    mode;
    label;
    swap;
    clients;
    owner = Usbs.Sfs.swap_name swap;
    cache_cap = cache_pages;
    lru = Ilist.create ();
    lnodes = Hashtbl.create 64;
    evicting = Hashtbl.create 8;
    disk_valid = Array.make (max 1 cap) true;
    dead = Array.make (max 1 cap) false;
    tally = no_store_stats () }

(* ------------------------------------------------------------------ *)
(* Local RAM tier (LRU over slot indices)                             *)

let cached st s = Hashtbl.mem st.lnodes s

let touch st s =
  match Hashtbl.find_opt st.lnodes s with
  | Some n -> Ilist.move_back st.lru n
  | None -> ()

let drop_cache st s =
  match Hashtbl.find_opt st.lnodes s with
  | Some n ->
      Ilist.remove st.lru n;
      Hashtbl.remove st.lnodes s
  | None -> ()

let tracked st s = Hashtbl.mem st.fl.pages (st.owner, s)

(* Fresh contents for a slot: every stored entry is stale. The drops
   are metadata at the nodes; the placement-book entry goes with
   them, so the fleet never serves the old bytes. *)
let drop_fleet st s =
  match Hashtbl.find_opt st.fl.pages (st.owner, s) with
  | Some reps ->
      Array.iteri
        (fun p i ->
          Remote_node.drop st.fl.nodes.(i).nd_remote ~shard:p
            ~owner:st.owner ~slot:s)
        reps;
      Hashtbl.remove st.fl.pages (st.owner, s)
  | None -> ()

(* A dirty page no node accepted lands on the disk; if the disk eats
   the write too the fleet held the last copy and the slot is dead. *)
let disk_write_slot st s =
  match Usbs.Sfs.write_page st.swap ~page_index:s with
  | Ok () -> st.disk_valid.(s) <- true
  | Error (`Lost_pages _) ->
      Inject.note_killed "fleet.demote";
      st.dead.(s) <- true;
      st.tally.st_lost_slots <- st.tally.st_lost_slots + 1
  | Error (`Retired | `Crashed) -> ()

(* Push one evicted slot to its stripe. Inclusive with the fleet: a
   slot already in the placement book just leaves the cache.
   Quarantined nodes are skipped (repair rebuilds their entries); the
   eviction succeeds if enough entries were acked to recover the page
   — one copy, or k shards. An under-placed erasure stripe is
   useless, so its acked shards are taken back before falling to the
   disk floor (no leaked node entries). *)
let demote st s =
  if (not (tracked st s)) && not st.dead.(s) then begin
    let t = st.fl in
    poll_faults t;
    let dirty = not st.disk_valid.(s) in
    let reps = placement t ~owner:st.owner ~slot:s in
    let acked = Array.make (Array.length reps) false in
    let placed = ref 0 in
    let push_one p =
      let i = reps.(p) in
      let nd = t.nodes.(i) in
      if nd.nd_quarantined then
        t.counts.replica_skips <- t.counts.replica_skips + 1
      else if not (Remote_node.has_room nd.nd_remote) then begin
        (* known-full before any byte moves *)
        t.counts.remote_fulls <- t.counts.remote_fulls + 1;
        metric "remote_full"
      end
      else
        match
          push_page t nd st.clients.(i) ~shard:p ~owner:st.owner ~slot:s
        with
        | `Acked ->
            incr placed;
            acked.(p) <- true;
            t.counts.stores <- t.counts.stores + 1;
            metric "store"
        | `Full ->
            t.counts.remote_fulls <- t.counts.remote_fulls + 1;
            metric "remote_full"
        | `Timeout -> t.counts.replica_timeouts <- t.counts.replica_timeouts + 1
    in
    in_parallel t (List.init (Array.length reps) (fun p () -> push_one p));
    if !placed >= Ec.k t.ec then begin
      Hashtbl.replace t.pages (st.owner, s) reps;
      st.tally.st_demotes <- st.tally.st_demotes + 1
    end
    else begin
      Array.iteri
        (fun p i ->
          if acked.(p) then
            Remote_node.drop t.nodes.(i).nd_remote ~shard:p ~owner:st.owner
              ~slot:s)
        reps;
      if dirty then begin
        st.tally.st_write_fallbacks <- st.tally.st_write_fallbacks + 1;
        disk_write_slot st s
      end
      else st.tally.st_clean_skips <- st.tally.st_clean_skips + 1
    end
  end

let rec shrink st =
  if Hashtbl.length st.lnodes > st.cache_cap then begin
    let victim =
      Ilist.fold
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None -> if Hashtbl.mem st.evicting s then None else Some s)
        None st.lru
    in
    match victim with
    | None -> ()
    | Some s ->
        Hashtbl.replace st.evicting s ();
        demote st s;
        Hashtbl.remove st.evicting s;
        drop_cache st s;
        shrink st
  end

let insert_cache st s =
  if not st.dead.(s) then begin
    if cached st s then touch st s
    else begin
      let n = Ilist.make_node s in
      Hashtbl.replace st.lnodes s n;
      Ilist.push_back st.lru n;
      shrink st
    end
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

(* Serve one tracked slot from its stripe: walk the positions in
   shard order (data first — the systematic fast path needs no
   decode) until k shards are in hand. Every position found
   unavailable on the way (quarantined, stale, timed out, corrupt)
   is one lost-shard observation; a read that still gathers k is a
   {e degraded read} — answered from remote memory by
   reconstruction, never the disk floor — and books each observed
   loss as a reconstruction. A read that cannot gather k returns the
   observation count for the disk-fallback side of the ledger. At
   k = 1 this is replica failover: the primary first, then each
   surviving copy in placement order. *)
let fetch_fleet st s =
  let t = st.fl in
  poll_faults t;
  let reps = Hashtbl.find t.pages (st.owner, s) in
  let k = Ec.k t.ec in
  let t0 = Time.to_us (Sim.now t.sim) in
  let got = ref 0 and losses = ref 0 in
  let fetch_one p =
    let i = reps.(p) in
    let nd = t.nodes.(i) in
    if nd.nd_quarantined then begin
      incr losses;
      metric "lost_shard"
    end
    else
      match
        fetch_shard t nd st.clients.(i) ~shard:p ~owner:st.owner ~slot:s
      with
      | `Ok ->
          incr got;
          nd.nd_serves <- nd.nd_serves + 1
      | `Stale | `Timeout | `Corrupt ->
          incr losses;
          metric "lost_shard"
  in
  (* Gather in parallel rounds: the k lowest live positions first
     (data shards — the systematic fast path needs no decode), then
     widen by exactly as many legs as failed. Healthy stripes pay one
     parallel round; a stripe missing j <= m shards pays one short
     second round for the parity it now needs (at k = 1 every round
     is one inline fetch). *)
  let next = ref 0 in
  while !got < k && !next < t.width do
    let batch = min (k - !got) (t.width - !next) in
    let first = !next in
    next := first + batch;
    in_parallel t (List.init batch (fun j () -> fetch_one (first + j)))
  done;
  t.counts.lost_shards <- t.counts.lost_shards + !losses;
  if !got >= k then begin
    if !losses > 0 then begin
      (* the GF(256) decode itself is CPU noise next to the wire *)
      t.counts.degraded_reads <- t.counts.degraded_reads + 1;
      t.counts.reconstructions <- t.counts.reconstructions + !losses;
      metric "degraded_read";
      if !Obs.enabled then
        Obs.Metrics.observe ~label:st.label "fleet.degraded_us"
          (Time.to_us (Sim.now t.sim) -. t0)
    end;
    `Served
  end
  else `All_lost !losses

let read_pages st ~page_index ~npages =
  let lost = ref [] in
  let fatal = ref None in
  let run_start = ref 0 and run_len = ref 0 in
  (* coalesce consecutive disk-served slots into one SFS transaction *)
  let flush_run () =
    if !run_len > 0 then begin
      (match
         Usbs.Sfs.read_pages st.swap ~page_index:!run_start ~npages:!run_len
       with
      | Ok () ->
          for s = !run_start to !run_start + !run_len - 1 do
            insert_cache st s
          done
      | Error (`Lost_pages l) ->
          for s = !run_start to !run_start + !run_len - 1 do
            if List.mem s l then lost := s :: !lost else insert_cache st s
          done
      | Error ((`Retired | `Crashed) as e) -> fatal := Some e);
      run_len := 0
    end
  in
  let from_disk s =
    if !run_len = 0 then begin
      run_start := s;
      run_len := 1
    end
    else run_len := !run_len + 1
  in
  let i = ref page_index in
  while !fatal = None && !i < page_index + npages do
    let s = !i in
    if st.dead.(s) then begin
      flush_run ();
      lost := s :: !lost
    end
    else if cached st s then begin
      flush_run ();
      touch st s;
      st.tally.st_cache_hits <- st.tally.st_cache_hits + 1;
      smetric st "cache_hit"
    end
    else if tracked st s then begin
      flush_run ();
      (* fleet reads feed the repair queue's hot-first ordering *)
      note_heat st.fl ~owner:st.owner ~slot:s;
      match fetch_fleet st s with
      | `Served ->
          st.tally.st_fleet_hits <- st.tally.st_fleet_hits + 1;
          smetric st "hit";
          st.tally.st_promotes <- st.tally.st_promotes + 1;
          (* inclusive: the nodes keep their entries *)
          insert_cache st s
      | `All_lost n ->
          st.fl.counts.disk_fallbacks <- st.fl.counts.disk_fallbacks + n;
          smetric st "disk_fallback";
          if st.disk_valid.(s) then begin
            from_disk s;
            flush_run ()
          end
          else begin
            st.tally.st_lost_slots <- st.tally.st_lost_slots + 1;
            st.dead.(s) <- true;
            lost := s :: !lost
          end
    end
    else begin
      st.tally.st_fleet_misses <- st.tally.st_fleet_misses + 1;
      from_disk s
    end;
    incr i
  done;
  flush_run ();
  match !fatal with
  | Some (`Retired | `Crashed) as e -> Error (Option.get e)
  | None ->
      if !lost = [] then Ok () else Error (`Lost_pages (List.rev !lost))

(* ------------------------------------------------------------------ *)
(* Writes (the disk is the durability floor)                          *)

let overwrite st s ~disk =
  st.dead.(s) <- false;
  drop_fleet st s;
  st.disk_valid.(s) <- disk;
  insert_cache st s

(* Settle a write-through range against the disk's answer: written
   slots hold fresh contents; a slot the disk lost dies here too (the
   caller answers the write loss; the tier just stops claiming copies
   it no longer has). *)
let settle st ~page_index ~npages = function
  | Error (`Retired | `Crashed) as e -> e
  | r ->
      let lost = match r with Error (`Lost_pages l) -> l | _ -> [] in
      for s = page_index to page_index + npages - 1 do
        if List.mem s lost then begin
          drop_cache st s;
          drop_fleet st s;
          st.dead.(s) <- true
        end
        else overwrite st s ~disk:true
      done;
      r

let write_pages st ~page_index ~npages =
  match st.mode with
  | Store.Write_through ->
      settle st ~page_index ~npages
        (Usbs.Sfs.write_pages st.swap ~page_index ~npages)
  | Store.Write_back ->
      for s = page_index to page_index + npages - 1 do
        overwrite st s ~disk:false
      done;
      Ok ()

let write_page st ~page_index = write_pages st ~page_index ~npages:1

(* Journaled commits always write through: the disk is the durability
   floor in both modes, so journal replay over committed slots is
   untouched by tiering. *)
let write_pages_commit st ~page_index ~npages ~pages ~retire =
  settle st ~page_index ~npages
    (Usbs.Sfs.write_pages_commit st.swap ~page_index ~npages ~pages ~retire)

let backing st =
  { Backing.label = st.label;
    page_capacity = (fun () -> Usbs.Sfs.page_capacity st.swap);
    journaled = (fun () -> Usbs.Sfs.swap_journaled st.swap);
    read_pages =
      (fun ~page_index ~npages -> read_pages st ~page_index ~npages);
    write_page = (fun ~page_index -> write_page st ~page_index);
    write_pages =
      (fun ~page_index ~npages -> write_pages st ~page_index ~npages);
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        write_pages_commit st ~page_index ~npages ~pages ~retire);
    slot_committed = (fun slot -> Usbs.Sfs.slot_committed st.swap slot);
    extent =
      (fun () ->
        (Usbs.Sfs.extent_start st.swap, Usbs.Sfs.extent_blocks st.swap)) }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let stats t = { t.counts with stores = t.counts.stores }

let health t =
  Array.to_list
    (Array.map
       (fun nd ->
         { nh_name = nd.nd_name;
           nh_member = nd.nd_member;
           nh_used = Remote_node.used_pages nd.nd_remote;
           nh_capacity = Remote_node.capacity nd.nd_remote;
           nh_quarantined = nd.nd_quarantined;
           nh_streak = nd.nd_streak;
           nh_quarantines = nd.nd_quarantines;
           nh_readmissions = nd.nd_readmissions;
           nh_stores = nd.nd_stores;
           nh_serves = nd.nd_serves })
       t.nodes)

let store_stats st = { st.tally with st_cache_hits = st.tally.st_cache_hits }

let store_totals stores =
  let sum = no_store_stats () in
  List.iter
    (fun { tally = c; _ } ->
      sum.st_cache_hits <- sum.st_cache_hits + c.st_cache_hits;
      sum.st_fleet_hits <- sum.st_fleet_hits + c.st_fleet_hits;
      sum.st_fleet_misses <- sum.st_fleet_misses + c.st_fleet_misses;
      sum.st_promotes <- sum.st_promotes + c.st_promotes;
      sum.st_demotes <- sum.st_demotes + c.st_demotes;
      sum.st_write_fallbacks <- sum.st_write_fallbacks + c.st_write_fallbacks;
      sum.st_clean_skips <- sum.st_clean_skips + c.st_clean_skips;
      sum.st_lost_slots <- sum.st_lost_slots + c.st_lost_slots)
    stores;
  sum

(* Bytes held across the fleet relative to the pages tracked: an
   entry is 1/k of a page (a whole one for replicas), so intact
   R = 2 measures 2.0x and intact (4, 2) measures 1.5x — the storage
   dividend the erasure experiment asserts. *)
let storage_overhead t =
  let tracked = Hashtbl.length t.pages in
  if tracked = 0 then 0.0
  else
    let entries =
      Array.fold_left
        (fun a nd -> a + Remote_node.used_pages nd.nd_remote)
        0 t.nodes
    in
    let frac = 1.0 /. float_of_int (Ec.k t.ec) in
    float_of_int entries *. frac /. float_of_int tracked

let books_balanced t =
  let c = t.counts in
  c.stores = c.acks
  && c.link_drops + c.unreachable = c.retransmits + c.frag_timeouts
  && c.lost_shards = c.reconstructions + c.rebuilds + c.disk_fallbacks

(* --- backing-axis registration --------------------------------------- *)

type fleet_cap = {
  fc_fleet : t;
  fc_clients : Usnet.Link.client array;
  fc_on_store : store -> unit;
}

type Backing.cap += Fleet_tier of fleet_cap

(* One parser behind two names: ["fleet"], and ["tiered"] — the
   RAM cache → one remote node → disk stack, which is a one-node
   [Replicated 1] fleet attached under the label ["tier"]. *)
let register ~name ~label ~doc =
  Registry.register_exn Backing.axis
    (Registry.manifest ~name ~doc
       ~params:
         [ { Registry.p_name = "cache-pages";
             p_doc = "local RAM cache size, pages";
             p_kind = Registry.Int 32 };
           { Registry.p_name = "label";
             p_doc = "store label for metrics and driver names";
             p_kind = Registry.String (Some label) } ]
       ~default:(name ^ ":cache-pages=32") ())
    (fun a ->
      match Registry.Spec.int_param a "cache-pages" ~default:32 with
      | Error e -> Error e
      | Ok cache_pages ->
          let label = Registry.Spec.string_param a "label" ~default:label in
          Ok
            (fun ctx swap ->
              match
                List.find_map
                  (function Fleet_tier c -> Some c | _ -> None)
                  ctx
              with
              | None ->
                  Error
                    (name ^ " backing needs a Tier.Fleet.Fleet_tier capability")
              | Some c ->
                  let s =
                    attach ~cache_pages ~label c.fc_fleet
                      ~clients:c.fc_clients ~swap ()
                  in
                  c.fc_on_store s;
                  Ok (backing s)))

let () =
  register ~name:"fleet" ~label:"fleet"
    ~doc:
      "replicated / erasure-coded remote-memory fleet over the disk \
       (Tier.Fleet)";
  register ~name:"tiered" ~label:"tier"
    ~doc:
      "local RAM cache over one remote memory node over the disk (a \
       one-node Tier.Fleet)"
