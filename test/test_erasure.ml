(* Tests for the erasure-coded remote tier: the GF(256) Reed-Solomon
   coder in isolation (any k-subset reconstructs byte-for-byte, more
   than m losses are typed, encode is deterministic), shard placement
   and the 1 + m/k storage price, degraded reads over a wiped node,
   shard repair and hot-first ordering, live membership (join /
   retire) with minimal-movement rebalancing, checksum-detected shard
   corruption, and a short safety-only run of the erasure
   experiment. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- The coder in isolation ------------------------------------- *)

let page_of_seed ~bytes seed =
  let st = Random.State.make [| seed |] in
  Bytes.init bytes (fun _ -> Char.chr (Random.State.int st 256))

(* Any k of the k + m shards reconstruct the page byte-for-byte,
   whichever k survive. *)
let ec_any_k_subset =
  QCheck.Test.make ~count:100 ~name:"ec: any k-subset reconstructs"
    QCheck.(
      quad (int_range 1 8) (int_range 0 4) (int_range 1 300)
        (int_bound 99999))
    (fun (k, m, bytes, seed) ->
      let code = Tier.Ec.make ~k ~m in
      let page = page_of_seed ~bytes seed in
      let shards = Tier.Ec.encode code page in
      (* pick a seeded k-subset of the k + m shard indices *)
      let st = Random.State.make [| seed; k; m |] in
      let idx = Array.init (k + m) Fun.id in
      for i = k + m - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- t
      done;
      let keep = Array.to_list (Array.sub idx 0 k) in
      let subset = List.map (fun i -> (i, shards.(i))) keep in
      match Tier.Ec.decode code ~page_bytes:bytes subset with
      | Ok page' -> Bytes.equal page page'
      | Error (`Unrecoverable _) -> false)

(* More than m losses: the typed shortfall, never silent garbage. *)
let ec_over_budget =
  QCheck.Test.make ~count:50 ~name:"ec: > m losses are unrecoverable"
    QCheck.(
      quad (int_range 2 8) (int_range 0 4) (int_range 1 300)
        (int_bound 99999))
    (fun (k, m, bytes, seed) ->
      let code = Tier.Ec.make ~k ~m in
      let page = page_of_seed ~bytes seed in
      let shards = Tier.Ec.encode code page in
      (* keep only k - 1 shards: one loss over the m budget *)
      let subset =
        List.filteri (fun i _ -> i < k - 1)
          (Array.to_list (Array.mapi (fun i s -> (i, s)) shards))
      in
      match Tier.Ec.decode code ~page_bytes:bytes subset with
      | Ok _ -> false
      | Error (`Unrecoverable { Tier.Ec.have; need }) ->
          have = k - 1 && need = k)

(* Same page, same (k, m): identical shards — the property the
   byte-identical same-seed rerun of the experiment rests on. *)
let ec_deterministic =
  QCheck.Test.make ~count:50 ~name:"ec: encode is deterministic"
    QCheck.(pair (int_range 1 200) (int_bound 99999))
    (fun (bytes, seed) ->
      let code = Tier.Ec.make ~k:4 ~m:2 in
      let page = page_of_seed ~bytes seed in
      let a = Tier.Ec.encode code page in
      let b = Tier.Ec.encode code page in
      Array.for_all2 Bytes.equal a b)

let ec_systematic () =
  (* the first k shards ARE the page, split in order: a healthy read
     never pays a decode *)
  let code = Tier.Ec.make ~k:4 ~m:2 in
  let page = page_of_seed ~bytes:64 42 in
  let shards = Tier.Ec.encode code page in
  check "width" 6 (Array.length shards);
  let len = Tier.Ec.shard_length code ~page_bytes:64 in
  check "shard length" 16 len;
  for i = 0 to 3 do
    checkb "data shard is the page slice" true
      (Bytes.equal shards.(i) (Bytes.sub page (i * len) len))
  done

let ec_junk_ignored () =
  (* duplicates, out-of-range indices and wrong-length shards are
     dropped before counting toward k *)
  let code = Tier.Ec.make ~k:3 ~m:2 in
  let page = page_of_seed ~bytes:90 7 in
  let shards = Tier.Ec.encode code page in
  let junk =
    [ (0, shards.(0)); (0, shards.(0)); (17, shards.(1)); (-1, shards.(1));
      (2, Bytes.create 3); (4, shards.(4)); (1, shards.(1)) ]
  in
  (match Tier.Ec.decode code ~page_bytes:90 junk with
  | Ok page' -> checkb "decodes around the junk" true (Bytes.equal page page')
  | Error _ -> Alcotest.fail "should decode: 0, 1 and 4 are usable");
  match
    Tier.Ec.decode code ~page_bytes:90
      [ (0, shards.(0)); (0, shards.(1)); (9, shards.(2)) ]
  with
  | Ok _ -> Alcotest.fail "one usable shard cannot decode k = 3"
  | Error (`Unrecoverable { Tier.Ec.have; need }) ->
      check "have counts usable only" 1 have;
      check "need is k" 3 need

(* --- The fleet in erasure mode ---------------------------------- *)

let mk_sfs () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usbs.Usd.create sim dm in
  (sim, u, Usbs.Sfs.create ~first_block:0 ~nblocks:1_000_000 u)

let open_swap_exn fs ~name ~bytes =
  let q = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  match Usbs.Sfs.open_swap fs ~name ~bytes ~qos:q () with
  | Ok s -> s
  | Error e -> failwith (Usbs.Sfs.open_error_message e)

(* A (k, m) = (4, 2) fleet over six member nodes (plus optional
   standby), one attached store over a 32-page swapfile. Tests drive
   repair themselves. *)
let mk_ec_fleet ?(seed = 7) ?(k = 4) ?(m = 2) ?(nodes = 6) ?(standby = 0)
    ?(node_pages = 64) ?(cache_pages = 2) ?repair_budget ?mode () =
  let sim, _, fs = mk_sfs () in
  let swap = open_swap_exn fs ~name:"e" ~bytes:(256 * 1024) in
  let mk i =
    let name = Printf.sprintf "en%d" i in
    let link = Usnet.Link.create ~name sim in
    (name, Tier.Remote_node.create ~capacity_pages:node_pages (), link)
  in
  let triples = List.init nodes mk in
  let standbys = List.init standby (fun i -> mk (nodes + i)) in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Erasure { k; m })
      ~standby:standbys ~repair:false ?repair_budget ~nodes:triples sim
  in
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:"t.ec" ~period:(Time.ms 20)
        ~slice:(Time.ms 10) ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok cs -> cs
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  let store = Tier.Fleet.attach ?mode fleet ~cache_pages ~clients ~swap () in
  (sim, fleet, store, swap, Array.of_list (triples @ standbys))

let write_exn b slot =
  match b.Tier.Backing.write_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_exn b slot =
  match b.Tier.Backing.read_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "read failed"

let remotes_of triples = Array.map (fun (_, r, _) -> r) triples

(* Demote places k + m shards on k + m distinct nodes; the fleet's
   storage price is 1 + m/k of the tracked pages, against 2.0 for
   R = 2 replication. *)
let ec_placement_and_overhead () =
  let sim, fleet, store, swap, triples = mk_ec_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 9 do
           write_exn b slot
         done));
  Sim.run ~until:(Time.sec 30) sim;
  let remotes = remotes_of triples in
  for slot = 0 to 7 do
    (* 8..9 may still sit in the 2-page cache *)
    let p = Tier.Fleet.placement fleet ~owner ~slot in
    check "stripe width is k + m" 6 (Array.length p);
    let distinct = List.sort_uniq compare (Array.to_list p) in
    check "shards on distinct nodes" 6 (List.length distinct);
    Array.iteri
      (fun shard node ->
        checkb "node holds its shard" true
          (Tier.Remote_node.holds ~shard remotes.(node) ~owner ~slot))
      p
  done;
  checkb "overhead is 1 + m/k" true
    (Float.abs (Tier.Fleet.storage_overhead fleet -. 1.5) < 0.01);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet)

(* Wipe one node: every read whose stripe lost a shard must still be
   answered from remote memory (a degraded read over the parity),
   with zero disk fallbacks and balanced shard books. *)
let ec_degraded_reads () =
  let sim, fleet, store, swap, triples = mk_ec_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = remotes_of triples in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         for slot = 0 to 11 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let f = Tier.Fleet.stats fleet in
  checkb "some stripes lost a shard" true (f.Tier.Fleet.lost_shards > 0);
  checkb "degraded reads happened" true (f.Tier.Fleet.degraded_reads > 0);
  check "no disk fallbacks within the m budget" 0
    f.Tier.Fleet.disk_fallbacks;
  check "every loss answered by reconstruction" f.Tier.Fleet.lost_shards
    f.Tier.Fleet.reconstructions;
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0
    (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots

(* Repair reconstructs the wiped node's shards from the survivors:
   after enough rounds every placement node holds its shard again. *)
let ec_repair_rebuild () =
  let sim, fleet, store, swap, triples = mk_ec_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = remotes_of triples in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         for _ = 1 to 10 do
           Tier.Fleet.repair_round fleet;
           Proc.sleep (Time.ms 10)
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let f = Tier.Fleet.stats fleet in
  checkb "shards rebuilt" true (f.Tier.Fleet.rebuilds > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  for slot = 0 to 11 do
    Array.iteri
      (fun shard node ->
        checkb "every shard held again" true
          (Tier.Remote_node.holds ~shard remotes.(node) ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done;
  ignore store

(* The hot-slot scenario: slots 0..13 demoted, slot 3 made hot by
   repeated faults (interleaved with reads of 10/11 so the 2-page
   cache never retains it), then the node holding slot 3's first
   shard is wiped — every stripe loses one shard — and one repair
   round runs. *)
let hot_slot_round ?repair_budget ?(after = fun _ -> ()) () =
  let sim, fleet, store, swap, triples =
    mk_ec_fleet ~cache_pages:2 ?repair_budget ()
  in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = remotes_of triples in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         for _ = 1 to 5 do
           read_exn b 3;
           read_exn b 10;
           read_exn b 11
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:3).(0) in
  Tier.Remote_node.wipe remotes.(victim);
  ignore
    (Proc.spawn sim (fun () ->
         Tier.Fleet.repair_round fleet;
         after b));
  Sim.run ~until:(Time.sec 90) sim;
  (fleet, owner, remotes)

(* Hot-first: with a repair budget of one entry per round, the round
   after the wipe rebuilds the page the domain has faulted on, not a
   cold one. *)
let ec_hot_first_repair () =
  let fleet, owner, remotes = hot_slot_round ~repair_budget:1 () in
  checkb "heat recorded" true (Tier.Fleet.heat fleet ~owner ~slot:3 > 0);
  let p = Tier.Fleet.placement fleet ~owner ~slot:3 in
  Array.iteri
    (fun shard node ->
      checkb "hot slot fully redundant after round one" true
        (Tier.Remote_node.holds ~shard remotes.(node) ~owner ~slot:3))
    p

(* Repair order is fleet state: observability on or off, the same
   budget-constrained round rebuilds the same page, so re-reading the
   hot slot afterwards books the same fleet stats. *)
let ec_repair_obs_blind () =
  let was = !Obs.enabled in
  let stats_with obs =
    Obs.set_enabled obs;
    Obs.reset ();
    let fleet, _, _ =
      hot_slot_round ~repair_budget:1 ~after:(fun b -> read_exn b 3) ()
    in
    Tier.Fleet.stats fleet
  in
  let on, off =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () ->
        let on = stats_with true in
        (on, stats_with false))
  in
  check "degraded reads" on.Tier.Fleet.degraded_reads
    off.Tier.Fleet.degraded_reads;
  checkb "identical fleet stats" true (on = off)

(* Membership: a standby joins, a member retires; only re-ranked
   pages move (migrations, not losses), nothing is lost, the ring
   reflects the change, and every tracked page still reads back. *)
let ec_join_retire () =
  (* width 6 over 10 members: stripes free of both changed nodes
     exist, so minimal movement is observable *)
  let sim, fleet, store, swap, triples =
    mk_ec_fleet ~nodes:10 ~standby:1 ()
  in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let before =
    Array.init 12 (fun slot -> Tier.Fleet.placement fleet ~owner ~slot)
  in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Fleet.add_node fleet ~name:"en10";
         for _ = 1 to 12 do
           Tier.Fleet.repair_round fleet;
           Proc.sleep (Time.ms 10)
         done;
         Tier.Fleet.retire_node fleet ~name:"en0";
         for _ = 1 to 12 do
           Tier.Fleet.repair_round fleet;
           Proc.sleep (Time.ms 10)
         done;
         for slot = 0 to 11 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 120) sim;
  let members = Array.to_list (Tier.Fleet.member_names fleet) in
  checkb "standby joined" true (List.mem "en10" members);
  checkb "retiree left the ring" true (not (List.mem "en0" members));
  let f = Tier.Fleet.stats fleet in
  check "one join" 1 f.Tier.Fleet.node_joins;
  check "one retire" 1 f.Tier.Fleet.node_retires;
  checkb "rebalancing migrated entries" true (f.Tier.Fleet.migrations > 0);
  (* minimal movement: a stripe whose top-width rank involves
     neither en10 nor en0 keeps its pre-change placement *)
  let moved = ref 0 and stable = ref 0 in
  let remotes = remotes_of triples in
  for slot = 0 to 11 do
    let now = Tier.Fleet.placement fleet ~owner ~slot in
    if now = before.(slot) then incr stable else incr moved;
    Array.iteri
      (fun shard node ->
        checkb "post-change stripe fully placed" true
          (Tier.Remote_node.holds ~shard remotes.(node) ~owner ~slot))
      now
  done;
  checkb "some stripes moved" true (!moved > 0);
  checkb "most stripes never moved (rendezvous re-rank)" true
    (!stable > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0
    (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots

(* A node serving checksum-corrupt shards: the read treats the shard
   as lost (reconstructs over it), the corruption is tallied, and no
   garbage is returned. *)
let ec_corrupt_shards () =
  let sim, fleet, store, swap, _ = mk_ec_fleet () in
  let b = Tier.Fleet.backing store in
  Inject.arm
    { Inject.default_plan with
      seed = 11;
      node_faults = [ Inject.node_fault ~corrupt:1.0 "en2" ] };
  Fun.protect ~finally:Inject.disarm (fun () ->
      ignore
        (Proc.spawn sim (fun () ->
             for slot = 0 to 13 do
               write_exn b slot
             done;
             for slot = 0 to 11 do
               read_exn b slot
             done));
      Sim.run ~until:(Time.sec 60) sim;
      let f = Tier.Fleet.stats fleet in
      checkb "corrupt serves detected" true (f.Tier.Fleet.corrupt_shards > 0);
      checkb "reads reconstructed over them" true
        (f.Tier.Fleet.degraded_reads > 0);
      check "no disk fallbacks (one bad node < m)" 0
        f.Tier.Fleet.disk_fallbacks;
      checkb "books balance" true (Tier.Fleet.books_balanced fleet);
      check "nothing lost" 0
        (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots);
  ignore swap

(* --- Experiment smoke ------------------------------------------- *)

(* Short run: safety invariants only (the latency/overhead verdict
   needs the 30 s default to warm up; `make erasure` covers that). *)
let erasure_experiment_smoke () =
  let open Experiments in
  let r =
    Harness.run_fleet ~seed:5 ~duration:(Time.sec 6) Remote_tier.erasure
  in
  check "both cells ran" 2 (List.length r.Harness.fr_cells);
  List.iter
    (fun c ->
      let name = c.Harness.c_name in
      check ("no committed pages lost: " ^ name) 0
        c.Harness.c_stores.Tier.Fleet.st_lost_slots;
      checkb ("books balance: " ^ name) true c.Harness.c_books_balanced;
      check ("no bystander violations: " ^ name) 0
        c.Harness.c_bystander_violations)
    r.Harness.fr_cells;
  checkb "same-seed rerun byte-identical" true r.Harness.fr_deterministic

(* --- Allocation on the stripe path ------------------------------ *)

(* A quiet rig: a (4, 2) fleet over six nodes with repair off, Obs
   off and a one-page cache, so each operation [body] measures is one
   stripe operation and nothing else runs. [body] runs inside the
   simulation, so everything the event loop does meanwhile counts:
   the caller, its transfer processes and the link schedulers. *)
let on_quiet_fleet ?mode body =
  let was = !Obs.enabled in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let sim, fleet, store, swap, triples =
        mk_ec_fleet ~cache_pages:1 ?mode ()
      in
      let words = ref 0. in
      ignore
        (Proc.spawn sim (fun () ->
             words :=
               body fleet (Tier.Fleet.backing store)
                 (Usbs.Sfs.swap_name swap) (remotes_of triples)));
      Sim.run ~until:(Time.sec 60) sim;
      (fleet, !words))

(* [Test_engine.words_per] over [op 0], [op 1], ... *)
let words_per ~warm ~n op =
  let i = ref 0 in
  Test_engine.words_per ~warm ~n (fun count ->
      for _ = 1 to count do
        op !i;
        incr i
      done)

(* A write-back write evicts the page written before it: one six-leg
   demote. Slots cycle through the swapfile, so each write also drops
   its slot's old stripe. With a process spawned per leg and a
   list-building placement this took 1,875.7 words. *)
let demote_words () =
  let fleet, per =
    on_quiet_fleet ~mode:Tier.Store.Write_back (fun _ b _ _ ->
        words_per ~warm:64 ~n:256 (fun i -> write_exn b (i mod 32)))
  in
  check "every demote placed six shards" (6 * (64 + 256 - 1))
    (Tier.Fleet.stats fleet).Tier.Fleet.stores;
  Test_engine.check_words "one six-leg demote" ~bound:918. per

(* A fleet read of a stripe whose node en0 was wiped, where en0 held
   a data shard: four legs at once, one of them answered stale, then
   one parity fetch. With a process spawned per leg this took 1,451.3
   words. *)
let degraded_read_words () =
  let reads = ref 0 in
  let fleet, per =
    on_quiet_fleet (fun fleet b owner remotes ->
        for slot = 0 to 31 do
          write_exn b slot
        done;
        Tier.Remote_node.wipe remotes.(0);
        let slots =
          List.filter
            (fun slot ->
              Array.mem 0
                (Array.sub (Tier.Fleet.placement fleet ~owner ~slot) 0 4))
            (List.init 31 Fun.id)
          |> Array.of_list
        in
        let len = Array.length slots in
        reads := 5 * len;
        words_per ~warm:len ~n:(4 * len) (fun i ->
            read_exn b slots.(i mod len)))
  in
  check "every read was degraded" !reads
    (Tier.Fleet.stats fleet).Tier.Fleet.degraded_reads;
  Test_engine.check_words "one degraded (4, 2) read" ~bound:929. per

let suite =
  [ ( "ec.coder",
      [ qtest ec_any_k_subset; qtest ec_over_budget; qtest ec_deterministic;
        Alcotest.test_case "systematic data shards" `Quick ec_systematic;
        Alcotest.test_case "junk shards ignored, typed shortfall" `Quick
          ec_junk_ignored ] );
    ( "ec.fleet",
      [ Alcotest.test_case "k+m shards on distinct nodes, 1.5x storage"
          `Quick ec_placement_and_overhead;
        Alcotest.test_case "degraded reads over a wiped node" `Quick
          ec_degraded_reads;
        Alcotest.test_case "repair reconstructs the wiped shards" `Quick
          ec_repair_rebuild;
        Alcotest.test_case "hot page rebuilt in round one" `Quick
          ec_hot_first_repair;
        Alcotest.test_case "repair order blind to Obs" `Quick
          ec_repair_obs_blind;
        Alcotest.test_case "join/retire rebalances with minimal movement"
          `Quick ec_join_retire;
        Alcotest.test_case "corrupt shards reconstructed over" `Quick
          ec_corrupt_shards ] );
    ( "ec.words",
      [ Alcotest.test_case "one six-leg demote" `Quick demote_words;
        Alcotest.test_case "one degraded read" `Quick degraded_read_words ] );
    ( "ec.experiment",
      [ Alcotest.test_case "erasure smoke" `Slow erasure_experiment_smoke ]
    ) ]
