(* Tests for the disaggregated backing-store tier: the Backing record,
   the remote-node model, the tiered store (a one-node fleet) and its
   promotion/demotion and double-entry books, and the (p,s,x,l) link
   plumbing the tier rides on. *)

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

let admit_exn link ~name ~period ~slice ?laxity () =
  match Usnet.Link.admit link ~name ~period ~slice ?laxity () with
  | Ok c -> c
  | Error e -> failwith (Usnet.Link.admit_error_message e)

(* The tiered store: a one-node [Replicated 1] fleet over a 32-page
   swapfile, its remote node on its own link. *)
let mk_rig ?mode ?(cache_pages = 4) ?(remote_pages = 16)
    ?(link_name = "tlink") () =
  let sim, _, fs = mk_sfs () in
  let swap = open_swap_exn fs ~name:"t" ~bytes:(256 * 1024) in
  let link = Usnet.Link.create ~name:link_name sim in
  let remote = Tier.Remote_node.create ~capacity_pages:remote_pages () in
  let fleet =
    Tier.Fleet.create ~seed:1 ~redundancy:(Tier.Fleet.Replicated 1)
      ~nodes:[ (link_name, remote, link) ] sim
  in
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:"t.tier" ~period:(Time.ms 20)
        ~slice:(Time.ms 10) ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok cs -> cs
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  let store = Tier.Fleet.attach ?mode ~cache_pages fleet ~clients ~swap () in
  (sim, fleet, store, swap, remote)

(* The store's books: the fleet's ledgers balance and no slot died. *)
let sound fleet store =
  Tier.Fleet.books_balanced fleet
  && (Tier.Fleet.store_stats store).Tier.Fleet.st_lost_slots = 0

(* --- Backing --- *)

let backing_of_sfs () =
  let sim, _, fs = mk_sfs () in
  let swap = open_swap_exn fs ~name:"a" ~bytes:(256 * 1024) in
  let b = Tier.Backing.of_sfs swap in
  let open Tier.Backing in
  checks "label" "sfs" b.label;
  check "page capacity" (Usbs.Sfs.page_capacity swap) (b.page_capacity ());
  checkb "journal flag" (Usbs.Sfs.swap_journaled swap) (b.journaled ());
  let lba, nblocks = b.extent () in
  check "extent start" (Usbs.Sfs.extent_start swap) lba;
  check "extent blocks" (Usbs.Sfs.extent_blocks swap) nblocks;
  let ok = ref false in
  ignore
    (Proc.spawn sim (fun () ->
         (match b.write_page ~page_index:3 with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write_page failed");
         match b.read_pages ~page_index:3 ~npages:1 with
         | Ok () -> ok := true
         | Error _ -> ()));
  Sim.run ~until:(Time.sec 1) sim;
  checkb "read back through the backing" true !ok

(* --- Remote_node --- *)

let remote_node_capacity () =
  let n = Tier.Remote_node.create ~capacity_pages:2 () in
  let store_ok owner slot =
    match Tier.Remote_node.store n ~shard:0 ~owner ~slot with
    | Ok () -> ()
    | Error `Remote_full -> Alcotest.fail "store refused below capacity"
  in
  checkb "room" true (Tier.Remote_node.has_room n);
  store_ok "a" 0;
  store_ok "a" 1;
  check "used" 2 (Tier.Remote_node.used_pages n);
  (match Tier.Remote_node.store n ~shard:0 ~owner:"a" ~slot:2 with
  | Error `Remote_full -> ()
  | Ok () -> Alcotest.fail "full node accepted a new page");
  store_ok "a" 1;
  check "idempotent store consumes nothing" 2 (Tier.Remote_node.used_pages n);
  checkb "holds what it stored" true
    (Tier.Remote_node.holds n ~shard:0 ~owner:"a" ~slot:1);
  checkb "owners are distinct keyspaces" false
    (Tier.Remote_node.holds n ~shard:0 ~owner:"b" ~slot:1);
  Tier.Remote_node.drop n ~shard:0 ~owner:"a" ~slot:0;
  store_ok "b" 7;
  check "drop freed a slot" 2 (Tier.Remote_node.used_pages n);
  Tier.Remote_node.wipe n;
  check "wiped" 0 (Tier.Remote_node.used_pages n)

(* --- Tiered store: deterministic demote / promote / hit --- *)

let tier_demote_promote () =
  let sim, fleet, store, swap, remote = mk_rig ~cache_pages:2 () in
  let b = Tier.Fleet.backing store in
  let owner = Usbs.Sfs.swap_name swap in
  let w slot =
    match b.Tier.Backing.write_pages ~page_index:slot ~npages:1 with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write failed"
  in
  let r slot =
    match b.Tier.Backing.read_pages ~page_index:slot ~npages:1 with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "read failed"
  in
  ignore
    (Proc.spawn sim (fun () ->
         w 0;
         w 1;
         w 2;
         (* cache holds two: writing slot 2 demoted slot 0 *)
         r 0;
         (* remote hit, promoted back (demoting slot 1 in turn) *)
         r 0 (* now a local RAM-tier hit *)));
  Sim.run ~until:(Time.sec 5) sim;
  let s = Tier.Fleet.store_stats store in
  let open Tier.Fleet in
  check "demotes" 2 s.st_demotes;
  check "remote hit" 1 s.st_fleet_hits;
  check "promote" 1 s.st_promotes;
  check "cache hit" 1 s.st_cache_hits;
  check "no disk round-trips" 0 s.st_fleet_misses;
  checkb "remote stays inclusive after promotion" true
    (Tier.Remote_node.holds remote ~shard:0 ~owner ~slot:0);
  checkb "books balance" true (books_balanced fleet);
  check "nothing lost" 0 s.st_lost_slots

(* --- Tiered store: model property --- *)

(* Random op sequences over random cache / remote-node sizes (including
   a zero-capacity remote node) and both write modes, so the fleet's
   Write_back path is covered: every slot ever written must read back
   Ok, and the books must balance. *)
let tier_model =
  QCheck.Test.make ~count:20
    ~name:"tier: every written slot reads back, any shape"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 50) (pair bool (int_bound 31)))
        (triple (int_range 1 6) (int_bound 10) bool))
    (fun (ops, (cache_pages, remote_pages, wb)) ->
      let mode =
        if wb then Tier.Store.Write_back else Tier.Store.Write_through
      in
      let sim, fleet, store, _, _ =
        mk_rig ~mode ~cache_pages ~remote_pages ()
      in
      let b = Tier.Fleet.backing store in
      let written = Hashtbl.create 16 in
      let bad = ref 0 in
      ignore
        (Proc.spawn sim (fun () ->
             List.iter
               (fun (is_write, slot) ->
                 if is_write then (
                   match
                     b.Tier.Backing.write_pages ~page_index:slot ~npages:1
                   with
                   | Ok () -> Hashtbl.replace written slot ()
                   | Error _ -> incr bad)
                 else if Hashtbl.mem written slot then
                   match
                     b.Tier.Backing.read_pages ~page_index:slot ~npages:1
                   with
                   | Ok () -> ()
                   | Error _ -> incr bad)
               ops;
             (* final sweep: everything ever written still reads back *)
             Hashtbl.iter
               (fun slot () ->
                 match
                   b.Tier.Backing.read_pages ~page_index:slot ~npages:1
                 with
                 | Ok () -> ()
                 | Error _ -> incr bad)
               written));
      Sim.run ~until:(Time.sec 60) sim;
      !bad = 0 && sound fleet store)

(* --- Tiered store: books under link chaos --- *)

(* Write-through under a hostile link: the disk always has a copy, so
   chaos may cost retransmissions and latency but never pages, and the
   packet and loss ledgers must hold whatever the seed. *)
let tier_chaos_books =
  QCheck.Test.make ~count:8
    ~name:"tier: loss books balance under link chaos"
    QCheck.(int_bound 9999)
    (fun seed ->
      let sim, fleet, store, _, _ =
        mk_rig ~cache_pages:2 ~remote_pages:8 ~link_name:"chaoslink" ()
      in
      let b = Tier.Fleet.backing store in
      Inject.arm
        { Inject.default_plan with
          seed;
          links =
            [ ( "chaoslink",
                { Inject.lf_drop = 0.3; lf_delay = 0.2;
                  lf_delay_span = Time.of_ms_float 1.0 } ) ] };
      Fun.protect ~finally:Inject.disarm (fun () ->
          let bad = ref 0 in
          ignore
            (Proc.spawn sim (fun () ->
                 for slot = 0 to 15 do
                   match
                     b.Tier.Backing.write_pages ~page_index:slot ~npages:1
                   with
                   | Ok () -> ()
                   | Error _ -> incr bad
                 done;
                 for slot = 0 to 15 do
                   match
                     b.Tier.Backing.read_pages ~page_index:slot ~npages:1
                   with
                   | Ok () -> ()
                   | Error _ -> incr bad
                 done));
          Sim.run ~until:(Time.sec 60) sim;
          !bad = 0 && sound fleet store))

(* --- Link: typed admission errors and laxity --- *)

let link_typed_errors () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  (match
     Usnet.Link.admit link ~name:"neg" ~period:(Time.ms 10)
       ~slice:(Time.ms 5) ~laxity:(-1) ()
   with
  | Error (Usnet.Link.Bad_qos _ as e) ->
    checks "legacy laxity string" "laxity must be non-negative"
      (Usnet.Link.admit_error_message e)
  | Error _ -> Alcotest.fail "wrong error class for negative laxity"
  | Ok _ -> Alcotest.fail "negative laxity admitted");
  ignore (admit_exn link ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 6) ());
  match
    Usnet.Link.admit link ~name:"b" ~period:(Time.ms 10) ~slice:(Time.ms 5) ()
  with
  | Error (Usnet.Link.Link_overcommit { requested; available } as e) ->
    checkb "requested half the link" true
      (abs_float (requested -. 0.5) < 1e-9);
    checkb "0.4 still available" true (abs_float (available -. 0.4) < 1e-9);
    checks "legacy overbook string" "admission refused: utilisation 1.100 > 1"
      (Usnet.Link.admit_error_message e)
  | Error _ -> Alcotest.fail "wrong error class for overcommit"
  | Ok _ -> Alcotest.fail "overbooked link admission accepted"

let link_laxity_holds_place () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  let c =
    admit_exn link ~name:"bulk" ~period:(Time.ms 10) ~slice:(Time.ms 8)
      ~laxity:(Time.of_ms_float 1.0) ()
  in
  let sent = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 50 do
           (match Usnet.Link.transmit link c ~bytes:1514 with
           | Ok () -> incr sent
           | Error `Retired -> Alcotest.fail "client retired");
           Proc.sleep (Time.us 300)
         done));
  Sim.run ~until:(Time.sec 2) sim;
  check "all packets out" 50 !sent;
  checkb "lax time charged for think gaps" true (Usnet.Link.lax_time c > 0)

(* --- Experiment smoke --- *)

let remote_experiment_smoke () =
  let r = Experiments.Remote_page.run ~seed:5 ~duration:(Time.sec 6) () in
  check "no bystander violations" 0
    r.Experiments.Remote_page.bystander_violations;
  checkb "loss books balance" true r.Experiments.Remote_page.books_balanced;
  checkb "same-seed rerun byte-identical" true
    r.Experiments.Remote_page.deterministic

let suite =
  [ ( "tier.backing",
      [ Alcotest.test_case "of_sfs passthrough" `Quick backing_of_sfs ] );
    ( "tier.remote_node",
      [ Alcotest.test_case "capacity and idempotence" `Quick
          remote_node_capacity ] );
    ( "tier.store",
      [ Alcotest.test_case "demote, promote, hit" `Quick tier_demote_promote;
        qtest tier_model;
        qtest tier_chaos_books ] );
    ( "tier.link",
      [ Alcotest.test_case "typed admit errors" `Quick link_typed_errors;
        Alcotest.test_case "laxity holds the link across think gaps" `Quick
          link_laxity_holds_place ] );
    ( "tier.experiment",
      [ Alcotest.test_case "remote paging smoke" `Slow remote_experiment_smoke
      ] ) ]
