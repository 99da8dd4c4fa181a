(* Tests for the replicated remote tier (the k = 1 stripe): rendezvous
   placement, the fleet's double-entry books under
   wipe/partition/repair interleavings, read failover, background
   re-replication, migration when a member retires, the bounded
   retransmit ladder shared with the disk path and the packet ledger
   behind it, and the typed not-bound errors on the sharing
   drivers. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

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

(* A fleet of [nodes] remote nodes on their own links, one attached
   store over a 32-page swapfile. Tests drive repair themselves
   ([repair = false] keeps the background process out of the way). *)
let mk_fleet ?(seed = 7) ?(replicas = 2) ?(nodes = 4) ?(node_pages = 16)
    ?(cache_pages = 2) ?(repair = false) ?repair_budget () =
  let sim, _, fs = mk_sfs () in
  let swap = open_swap_exn fs ~name:"f" ~bytes:(256 * 1024) in
  let triples =
    List.init nodes (fun i ->
        let name = Printf.sprintf "fn%d" i in
        let link = Usnet.Link.create ~name sim in
        (name, Tier.Remote_node.create ~capacity_pages:node_pages (), link))
  in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated replicas)
      ~repair ?repair_budget ~nodes:triples sim
  in
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:"t.fleet" ~period:(Time.ms 20)
        ~slice:(Time.ms 10) ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok cs -> cs
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  let store = Tier.Fleet.attach fleet ~cache_pages ~clients ~swap () in
  (sim, fleet, store, swap, triples)

let write_exn b slot =
  match b.Tier.Backing.write_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_exn b slot =
  match b.Tier.Backing.read_pages ~page_index:slot ~npages:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "read failed"

(* --- Placement --- *)

let placement_determinism () =
  let _, f1, _, swap, _ = mk_fleet ~seed:11 () in
  let _, f2, _, _, _ = mk_fleet ~seed:11 () in
  let _, f3, _, _, _ = mk_fleet ~seed:12 () in
  let owner = Usbs.Sfs.swap_name swap in
  let differs = ref false in
  for slot = 0 to 31 do
    let p1 = Tier.Fleet.placement f1 ~owner ~slot in
    let p2 = Tier.Fleet.placement f2 ~owner ~slot in
    let p3 = Tier.Fleet.placement f3 ~owner ~slot in
    checkb "same seed, same placement" true (p1 = p2);
    if p1 <> p3 then differs := true;
    check "R replicas" 2 (Array.length p1);
    Array.iter
      (fun i -> checkb "replica index in range" true (i >= 0 && i < 4))
      p1;
    checkb "replicas distinct" true (p1.(0) <> p1.(1))
  done;
  checkb "different seed moves at least one slot" true !differs

let placement_clamp () =
  let _, f, _, swap, _ = mk_fleet ~seed:3 ~replicas:9 ~nodes:3 () in
  let owner = Usbs.Sfs.swap_name swap in
  let p = Tier.Fleet.placement f ~owner ~slot:0 in
  check "replicas clamp to fleet size" 3 (Array.length p)

(* The MD5 of every placement over a grid of owners x slots, taken on
   a fleet of [nodes] members and one standby, then again after the
   standby joins and again after member pn1 retires. Any reordering of
   the rendezvous ranking, ties included, moves it. *)
let placement_digest redundancy ~nodes =
  let sim = Sim.create () in
  let node i =
    let name = Printf.sprintf "pn%d" i in
    ( name,
      Tier.Remote_node.create ~capacity_pages:1 (),
      Usnet.Link.create ~name sim )
  in
  let fleet =
    Tier.Fleet.create ~seed:42 ~redundancy ~repair:false
      ~nodes:(List.init nodes node) ~standby:[ node nodes ] sim
  in
  let b = Buffer.create 65536 in
  let dump () =
    List.iter
      (fun owner ->
        List.iter
          (fun slot ->
            Array.iter
              (fun i -> Buffer.add_string b (string_of_int i ^ ","))
              (Tier.Fleet.placement fleet ~owner ~slot);
            Buffer.add_char b ';')
          (List.init 256 Fun.id @ List.init 64 (fun i -> (i * 7919) + 65536)))
      [ "a"; "app.swap"; "d17.swap"; "fleet-degraded.r0.swap" ]
  in
  dump ();
  Tier.Fleet.add_node fleet ~name:(Printf.sprintf "pn%d" nodes);
  dump ();
  Tier.Fleet.retire_node fleet ~name:"pn1";
  dump ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned from the list-sorting placement that preceded the insertion
   one, so both rank every page alike. *)
let placement_pinned () =
  checks "(4, 2) over six nodes" "ff5bc84a78ee0d5973a49446f688ccb7"
    (placement_digest (Tier.Fleet.Erasure { k = 4; m = 2 }) ~nodes:6);
  checks "two replicas over four nodes" "7dc60f6d2fb032c48123491da0dac195"
    (placement_digest (Tier.Fleet.Replicated 2) ~nodes:4)

(* --- Demote / fetch through the Backing seam --- *)

let fleet_demote_fetch () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 7 do
           write_exn b slot
         done;
         for slot = 0 to 7 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 30) sim;
  let f = Tier.Fleet.stats fleet in
  let st = Tier.Fleet.store_stats store in
  check "stores = acks" f.Tier.Fleet.acks f.Tier.Fleet.stores;
  checkb "fleet served reads" true (st.Tier.Fleet.st_fleet_hits > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0 st.Tier.Fleet.st_lost_slots;
  (* every tracked slot is fully replicated on its placement nodes:
     slots 0..5 were evicted from the 2-page cache by the later writes *)
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  for slot = 0 to 5 do
    Array.iteri
      (fun p i ->
        checkb "replica holds the page" true
          (Tier.Remote_node.holds remotes.(i) ~shard:p ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done

(* --- Wipe: reads fail over to the surviving replica --- *)

let wipe_failover () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         (* slots 0..11 demoted; 12..13 flush the 2-page cache *)
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         for slot = 0 to 11 do
           read_exn b slot
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let orphans = ref 0 in
  for slot = 0 to 11 do
    if (Tier.Fleet.placement fleet ~owner ~slot).(0) = victim then
      incr orphans
  done;
  checkb "the victim was primary somewhere" true (!orphans > 0);
  let f = Tier.Fleet.stats fleet in
  check "each orphaned primary failed over" !orphans
    f.Tier.Fleet.degraded_reads;
  check "no disk fallbacks (secondary survives)" 0
    f.Tier.Fleet.disk_fallbacks;
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  check "nothing lost" 0
    (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots

(* --- Repair: the wiped node is re-replicated from survivors --- *)

let repair_rebuild () =
  let sim, fleet, store, swap, triples = mk_fleet () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  let victim = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  ignore
    (Proc.spawn sim (fun () ->
         for slot = 0 to 13 do
           write_exn b slot
         done;
         Tier.Remote_node.wipe remotes.(victim);
         (* default budget is 8 copies a round; a few rounds heal it *)
         for _ = 1 to 6 do
           Tier.Fleet.repair_round fleet;
           Proc.sleep (Time.ms 10)
         done));
  Sim.run ~until:(Time.sec 60) sim;
  let f = Tier.Fleet.stats fleet in
  checkb "primary copies rebuilt" true (f.Tier.Fleet.rebuilds > 0);
  checkb "books balance" true (Tier.Fleet.books_balanced fleet);
  for slot = 0 to 11 do
    Array.iteri
      (fun p i ->
        checkb "every replica holds every tracked slot again" true
          (Tier.Remote_node.holds remotes.(i) ~shard:p ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done;
  ignore store

(* --- Membership: retiring a member moves its copies --- *)

(* Retiring slot 0's primary re-ranks every page it held. When a
   page's new primary is the node that already holds its other copy,
   that node briefly holds both positions; nodes key copies by
   position, so the next position's migration moves its own entry off
   that node and leaves the primary's in place. One round with a
   budget that covers every move leaves each page fully replicated on
   its new placement, and a second round finds nothing lost. *)
let retire_migrates () =
  let sim, fleet, store, swap, triples =
    mk_fleet ~node_pages:64 ~repair_budget:64 ()
  in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let remotes = Array.of_list (List.map (fun (_, r, _) -> r) triples) in
  let primary = (Tier.Fleet.placement fleet ~owner ~slot:0).(0) in
  let victim = (Tier.Fleet.node_names fleet).(primary) in
  let round () =
    ignore (Proc.spawn sim (fun () -> Tier.Fleet.repair_round fleet));
    Sim.run ~until:(Time.add (Sim.now sim) (Time.sec 10)) sim
  in
  ignore
    (Proc.spawn sim (fun () ->
         (* slots 0..11 demoted; 12..13 flush the 2-page cache *)
         for slot = 0 to 13 do
           write_exn b slot
         done));
  Sim.run ~until:(Time.sec 10) sim;
  Tier.Fleet.retire_node fleet ~name:victim;
  round ();
  Alcotest.(check (float 1e-9))
    "two copies of every page" 2.0
    (Tier.Fleet.storage_overhead fleet);
  for slot = 0 to 11 do
    Array.iteri
      (fun p i ->
        checkb "each position's node holds its copy" true
          (Tier.Remote_node.holds remotes.(i) ~shard:p ~owner ~slot))
      (Tier.Fleet.placement fleet ~owner ~slot)
  done;
  round ();
  let f = Tier.Fleet.stats fleet in
  checkb "the retire moved copies" true (f.Tier.Fleet.migrations > 0);
  check "no copy lost" 0 f.Tier.Fleet.lost_shards;
  check "no copy rebuilt" 0 f.Tier.Fleet.rebuilds;
  checkb "books balance" true (Tier.Fleet.books_balanced fleet)

(* --- Model: books balance under wipe/partition/repair interleavings --- *)

(* Random op sequences against a fleet whose nodes are wiped and
   partitioned at random virtual times, with repair rounds woven in:
   write-through keeps a disk floor under everything, so whatever the
   interleaving, every op must succeed, nothing may be lost, and both
   double-entry books must balance. *)
let fleet_books_model =
  QCheck.Test.make ~count:10
    ~name:"fleet: books balance under wipe/partition/repair"
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 40)
           (pair (int_bound 2) (int_bound 13)))
        (triple (int_bound 9999) (int_bound 3) (int_bound 3)))
    (fun (ops, (seed, wiped, parted)) ->
      let sim, fleet, store, _, _ = mk_fleet ~seed:(seed + 1) () in
      let b = Tier.Fleet.backing store in
      let ms f = Time.of_ms_float f in
      Inject.arm
        { Inject.default_plan with
          seed;
          node_faults =
            [ Inject.node_fault
                ~wipe_at:(ms (float_of_int (seed mod 400)))
                (Printf.sprintf "fn%d" wiped);
              Inject.node_fault
                ~partitions:
                  [ ( ms (float_of_int (seed mod 200)),
                      ms (float_of_int ((seed mod 200) + 150)) ) ]
                (Printf.sprintf "fn%d" parted) ] };
      Fun.protect ~finally:Inject.disarm (fun () ->
          let bad = ref 0 in
          let written = Hashtbl.create 16 in
          ignore
            (Proc.spawn sim (fun () ->
                 List.iter
                   (fun (kind, slot) ->
                     match kind with
                     | 0 -> (
                         match
                           b.Tier.Backing.write_pages ~page_index:slot
                             ~npages:1
                         with
                         | Ok () -> Hashtbl.replace written slot ()
                         | Error _ -> incr bad)
                     | 1 ->
                         if Hashtbl.mem written slot then (
                           match
                             b.Tier.Backing.read_pages ~page_index:slot
                               ~npages:1
                           with
                           | Ok () -> ()
                           | Error _ -> incr bad)
                     | _ ->
                         Tier.Fleet.repair_round fleet;
                         Proc.sleep (Time.ms 20))
                   ops;
                 (* let repair settle, then sweep: every written slot
                    must still read back through some copy *)
                 for _ = 1 to 4 do
                   Tier.Fleet.repair_round fleet;
                   Proc.sleep (Time.ms 20)
                 done;
                 Hashtbl.iter
                   (fun slot () ->
                     match
                       b.Tier.Backing.read_pages ~page_index:slot ~npages:1
                     with
                     | Ok () -> ()
                     | Error _ -> incr bad)
                   written));
          Sim.run ~until:(Time.sec 120) sim;
          !bad = 0
          && Tier.Fleet.books_balanced fleet
          && (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots = 0))

(* --- The bounded retransmit ladder (shared with Sfs) --- *)

let backoff_ladder () =
  let base = Time.ms 1 in
  check "attempt 0" (Time.ms 1) (Tier.Fleet.backoff ~base ~attempt:0);
  check "attempt 1" (Time.ms 2) (Tier.Fleet.backoff ~base ~attempt:1);
  check "attempt 2" (Time.ms 4) (Tier.Fleet.backoff ~base ~attempt:2);
  check "attempt 3" (Time.ms 8) (Tier.Fleet.backoff ~base ~attempt:3);
  check "attempt 9 stays capped" (Time.ms 8)
    (Tier.Fleet.backoff ~base ~attempt:9)

(* A black-hole link under a one-node fleet: the demote's first
   fragment is dropped, retransmitted three times on the ladder and
   then times out, and the packet ledger books every drop. *)
let black_hole_demote () =
  let sim, fleet, store, _, _ =
    mk_fleet ~replicas:1 ~nodes:1 ~cache_pages:1 ()
  in
  let b = Tier.Fleet.backing store in
  Inject.arm
    { Inject.default_plan with
      seed = 1;
      links =
        [ ("fn0", { Inject.lf_drop = 1.0; lf_delay = 0.0; lf_delay_span = 0 })
        ] };
  Fun.protect ~finally:Inject.disarm (fun () ->
      ignore
        (Proc.spawn sim (fun () ->
             write_exn b 0;
             write_exn b 1 (* evicts slot 0: demote into the black hole *)));
      Sim.run ~until:(Time.sec 10) sim;
      let f = Tier.Fleet.stats fleet in
      check "three retransmits" 3 f.Tier.Fleet.retransmits;
      check "one fragment timeout" 1 f.Tier.Fleet.frag_timeouts;
      check "one abandoned copy" 1 f.Tier.Fleet.replica_timeouts;
      check "every attempt dropped" 4 f.Tier.Fleet.link_drops;
      check "the injector agrees" (Inject.tally ()).Inject.link_drops
        f.Tier.Fleet.link_drops;
      checkb "books balance" true (Tier.Fleet.books_balanced fleet);
      check "the disk copy answers" 1
        (Tier.Fleet.store_stats store).Tier.Fleet.st_clean_skips)

(* --- Typed not-bound errors on the sharing drivers --- *)

let typed_not_bound () =
  checks "Seg printer keeps the legacy string" "Seg: driver not bound"
    (Printexc.to_string (Share.Seg.Not_bound { driver = "Seg" }));
  checks "Cow printer keeps the legacy string" "Cow: driver not bound"
    (Printexc.to_string (Share.Cow.Not_bound { driver = "Cow" }))

(* --- Experiment smoke --- *)

(* Short run: safety invariants only (the full latency/health verdict
   needs the 30 s default to warm up; `make failover` covers that). *)
let failover_experiment_smoke () =
  let open Experiments in
  let r =
    Harness.run_fleet ~seed:5 ~duration:(Time.sec 6) Remote_tier.failover
  in
  let c = List.hd r.Harness.fr_cells in
  check "no bystander violations" 0 c.Harness.c_bystander_violations;
  checkb "fleet books balance" true c.Harness.c_books_balanced;
  check "no committed pages lost" 0
    c.Harness.c_stores.Tier.Fleet.st_lost_slots;
  checkb "same-seed rerun byte-identical" true r.Harness.fr_deterministic

let suite =
  [ ( "fleet.placement",
      [ Alcotest.test_case "rendezvous determinism" `Quick
          placement_determinism;
        Alcotest.test_case "replicas clamp to fleet size" `Quick
          placement_clamp;
        Alcotest.test_case "pinned over owners x slots, join and retire"
          `Quick placement_pinned ] );
    ( "fleet.store",
      [ Alcotest.test_case "demote replicates, fetch promotes" `Quick
          fleet_demote_fetch;
        Alcotest.test_case "wiped primary fails over" `Quick wipe_failover;
        Alcotest.test_case "repair re-replicates the wiped node" `Quick
          repair_rebuild;
        Alcotest.test_case "retiring a member moves copies without loss"
          `Quick retire_migrates;
        qtest fleet_books_model ] );
    ( "fleet.retransmit",
      [ Alcotest.test_case "bounded exponential ladder" `Quick backoff_ladder;
        Alcotest.test_case "black-holed demote ledger" `Quick
          black_hole_demote ] );
    ( "share.errors",
      [ Alcotest.test_case "typed not-bound keeps legacy strings" `Quick
          typed_not_bound ] );
    ( "fleet.experiment",
      [ Alcotest.test_case "failover smoke" `Slow failover_experiment_smoke ]
    ) ]
