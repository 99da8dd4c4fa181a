(* Tests for crash consistency: the write-ahead intent journal, torn
   multi-blok writes, remount/recovery, swapfile reattachment and the
   crash-recover experiment end to end. *)

open Engine
open Usbs

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let qos () = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) ()

(* Run [f] on a simulation process and step the simulator until it
   returns; journal appends, remounts and committing writes are all
   timed USD transactions and must run inside a process. *)
let in_proc sim f =
  let out = ref None in
  ignore (Proc.spawn sim (fun () -> out := Some (f ())));
  let fuel = ref 2_000_000 in
  while !out = None && !fuel > 0 do
    if Sim.step sim then decr fuel else fuel := 0
  done;
  match !out with
  | Some v -> v
  | None -> Alcotest.fail "simulation process did not complete"

let mk_sfs ?(journal_blocks = 256) () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usd.create sim dm in
  (sim, Sfs.create ~journal_blocks ~first_block:0 ~nblocks:1_000_000 u)

(* --- open_swap name collision (regression) --- *)

let open_swap_exists () =
  let _, fs = mk_sfs ~journal_blocks:0 () in
  let q = qos () in
  (match Sfs.open_swap fs ~name:"a" ~bytes:(256 * 1024) ~qos:q () with
  | Ok _ -> ()
  | Error e -> failwith (Sfs.open_error_message e));
  match Sfs.open_swap fs ~name:"a" ~bytes:(128 * 1024) ~qos:q () with
  | Error `Exists -> ()
  | Error (`Sfs m) -> Alcotest.fail ("wrong error class: " ^ m)
  | Ok _ -> Alcotest.fail "duplicate swap name accepted"

(* --- retiring a USD client resolves every pending submission --- *)

let retire_fills_pending () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usd.create sim dm in
  let c =
    match Usd.admit u ~name:"a" ~qos:(qos ()) ~channel_depth:1 () with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* Three async writers against a depth-1 channel: one transaction in
     flight, one queued, one submitter blocked on the full channel. *)
  let resolved = ref 0 in
  for i = 0 to 2 do
    ignore
      (Proc.spawn sim (fun () ->
           match Usd.submit u c Usd.Write ~lba:(i * 64) ~nblocks:64 with
           | Ok iv ->
             ignore (Sync.Ivar.read iv);
             incr resolved
           | Error `Retired -> incr resolved))
  done;
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep (Time.ms 1);
         Usd.retire u c));
  Sim.run ~until:(Time.sec 5) sim;
  (* The point of the test: no waiter blocks forever on retirement. *)
  check "every pending submission resolved" 3 !resolved

(* --- the intent journal: append / replay round trip --- *)

let mk_journal ?(nblocks = 64) () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usd.create sim dm in
  let c =
    match Usd.admit u ~name:"j" ~qos:(qos ()) () with
    | Ok c -> c
    | Error e -> failwith e
  in
  (sim, Journal.create ~u ~client:c ~first:0 ~nblocks)

let append_exn j ~site r =
  match Journal.append j ~site r with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "journal append failed"

let journal_roundtrip () =
  let sim, j = mk_journal () in
  let recs =
    [ Journal.Swap_open
        { name = "a"; start = 64; len = 128; data_pages = 8; spare_pages = 2 };
      Journal.Remap { name = "a"; slot = 3; spare = 8 };
      Journal.Commit
        { name = "a"; pairs = [ (0, 0); (1, 1) ]; retire = [ (0, 5) ] };
      Journal.Swap_close { name = "a" } ]
  in
  in_proc sim (fun () -> List.iter (append_exn j ~site:"a") recs);
  check "appends counted" 4 (Journal.appended j);
  let replayed, st = in_proc sim (fun () -> Journal.replay j) in
  check "all records replayed" 4 st.Journal.rp_replayed;
  check "none torn" 0 st.Journal.rp_torn;
  checkb "records round-trip in order" true (replayed = recs)

let journal_full_latches () =
  let sim, j = mk_journal ~nblocks:2 () in
  in_proc sim (fun () ->
      append_exn j ~site:"a" (Journal.Swap_close { name = "a" });
      append_exn j ~site:"a" (Journal.Swap_close { name = "a" });
      (match Journal.append j ~site:"a" (Journal.Swap_close { name = "a" }) with
      | Error `Full -> ()
      | _ -> Alcotest.fail "overfull append accepted");
      match Journal.append j ~site:"a" (Journal.Swap_close { name = "a" }) with
      | Error `Full -> ()
      | _ -> Alcotest.fail "full did not latch");
  checkb "journal reports full" true (Journal.full j)

(* --- torn appends are quarantined, the journal stays usable --- *)

(* A Commit with many pairs spans several bloks, so a crash point can
   tear it mid-record (a single-blok record can only tear to nothing,
   which replay rightly treats as a clean end of journal). *)
let big_commit n =
  Journal.Commit { name = "big"; pairs = List.init n (fun i -> (i, i)); retire = [] }

let crash_all_plan ~seed =
  { Inject.default_plan with
    seed;
    crashes =
      [ { Inject.cp_after = Time.zero; cp_site = None; cp_first = 0; cp_len = 0 } ]
  }

let journal_torn_quarantine () =
  let torn_seen = ref 0 in
  for seed = 1 to 8 do
    let sim, j = mk_journal ~nblocks:64 () in
    let sopen =
      Journal.Swap_open
        { name = "s"; start = 64; len = 64; data_pages = 4; spare_pages = 0 }
    in
    in_proc sim (fun () ->
        append_exn j ~site:"s" sopen;
        append_exn j ~site:"s" (Journal.Remap { name = "s"; slot = 0; spare = 3 }));
    Inject.arm (crash_all_plan ~seed);
    let r = in_proc sim (fun () -> Journal.append j ~site:"s" (big_commit 200)) in
    Inject.disarm ();
    (match r with
    | Error `Crashed -> ()
    | _ -> Alcotest.fail "crash point did not fire on the append");
    check "crash tallied" 1 (Inject.tally ()).Inject.crashes;
    let replayed, st = in_proc sim (fun () -> Journal.replay j) in
    check "pre-crash records survive" 2 st.Journal.rp_replayed;
    checkb "torn record never replays" false
      (List.exists (function Journal.Commit _ -> true | _ -> false) replayed);
    torn_seen := !torn_seen + st.Journal.rp_torn;
    (* After quarantine the journal must accept and replay new appends
       over the erased tail. *)
    in_proc sim (fun () ->
        append_exn j ~site:"s" (Journal.Swap_close { name = "s" }));
    let _, st2 = in_proc sim (fun () -> Journal.replay j) in
    check "append after quarantine replays" 3 st2.Journal.rp_replayed
  done;
  (* Seeded prefixes: at least one seed must leave partial bloks on the
     platter that replay detects as a torn record (not just a blank). *)
  checkb "some tear was detected and quarantined" true (!torn_seen > 0)

(* --- SFS: commit, detach, remount, reattach --- *)

let sfs_remount_reattach () =
  let sim, fs = mk_sfs () in
  let q = qos () in
  let sf =
    in_proc sim (fun () ->
        match
          Sfs.open_swap fs ~name:"v" ~bytes:(256 * 1024) ~qos:q ~spare_pages:2
            ()
        with
        | Ok s -> s
        | Error e -> failwith (Sfs.open_error_message e))
  in
  in_proc sim (fun () ->
      match
        Sfs.write_pages_commit sf ~page_index:0 ~npages:4
          ~pages:[ (10, 0); (11, 1); (12, 2); (13, 3) ]
          ~retire:[]
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "committing write failed");
  checkb "slot committed" true (Sfs.slot_committed sf 0);
  (* The out-of-place rewrite rule: a fresh slot is committed and the
     superseded one retired by the same record. *)
  in_proc sim (fun () ->
      match
        Sfs.write_pages_commit sf ~page_index:4 ~npages:1 ~pages:[ (10, 4) ]
          ~retire:[ (10, 0) ]
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "re-siting write failed");
  Alcotest.(check (list (pair int int)))
    "retire superseded the old slot"
    [ (10, 4); (11, 1); (12, 2); (13, 3) ]
    (Sfs.committed_pairs sf);
  (* The owner dies; its swapfile survives detached. *)
  Sfs.detach_swap fs sf;
  checkb "detached" false (Sfs.attached sf);
  (match Sfs.reattach_swap fs ~name:"nope" ~qos:q with
  | Error `Unknown -> ()
  | _ -> Alcotest.fail "unknown name reattached");
  let st =
    in_proc sim (fun () ->
        match Sfs.remount fs with Ok st -> st | Error e -> failwith e)
  in
  check "open + two commits replayed" 3 st.Sfs.rm_replayed;
  check "detached swap adopted from the journal" 1 st.Sfs.rm_swaps;
  check "no free-map conflicts" 0 st.Sfs.rm_conflicts;
  let sf2, pairs =
    in_proc sim (fun () ->
        match Sfs.reattach_swap fs ~name:"v" ~qos:q with
        | Ok x -> x
        | Error _ -> Alcotest.fail "reattach failed")
  in
  Alcotest.(check (list (pair int int)))
    "committed image recovered"
    [ (10, 4); (11, 1); (12, 2); (13, 3) ]
    pairs;
  checkb "every committed slot verifies" true
    (List.for_all (fun (_, slot) -> Sfs.slot_ok sf2 ~slot) pairs);
  match Sfs.reattach_swap fs ~name:"v" ~qos:q with
  | Error `Attached -> ()
  | _ -> Alcotest.fail "double reattach accepted"

(* --- Bloks.claim --- *)

let bloks_claim () =
  let b = Core.Bloks.create ~nbloks:8 in
  checkb "claim free blok" true (Core.Bloks.claim b 3);
  checkb "claimed blok allocated" true (Core.Bloks.is_allocated b 3);
  checkb "double claim refused" false (Core.Bloks.claim b 3);
  let rec drain acc =
    match Core.Bloks.alloc b with Some x -> drain (x :: acc) | None -> acc
  in
  let handed = drain [] in
  checkb "claimed blok never handed out" false (List.mem 3 handed);
  check "rest still allocatable" 7 (List.length handed);
  Core.Bloks.check_invariants b

(* --- properties --- *)

(* Replaying the journal twice yields byte-identical recovered state,
   whatever mix of opens, commits, closes and detaches preceded it. *)
let remount_idempotent =
  QCheck.Test.make ~name:"remount is idempotent (replay twice, same snapshot)"
    ~count:20
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 1 16))
    (fun sizes ->
      let sim, fs = mk_sfs () in
      let q = qos () in
      in_proc sim (fun () ->
          List.iteri
            (fun i pages ->
              match
                Sfs.open_swap fs
                  ~name:("s" ^ string_of_int i)
                  ~bytes:(pages * 8192) ~qos:q ()
              with
              | Error _ -> ()
              | Ok sf ->
                let n = min pages 4 in
                (match
                   Sfs.write_pages_commit sf ~page_index:0 ~npages:n
                     ~pages:(List.init n (fun p -> (p, p)))
                     ~retire:[]
                 with
                | Ok () | Error _ -> ());
                if i mod 3 = 0 then Sfs.close_swap fs sf
                else Sfs.detach_swap fs sf)
            sizes);
      let remount_snapshot () =
        in_proc sim (fun () ->
            (match Sfs.remount fs with
            | Ok _ -> ()
            | Error e -> failwith e);
            Sfs.snapshot fs)
      in
      remount_snapshot () = remount_snapshot ())

(* Two runs under the same seed tear the same write at the same prefix
   and recover to byte-identical state. *)
let crash_run_deterministic =
  QCheck.Test.make ~name:"same-seed crash runs recover identically" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run_once () =
        Obs.set_enabled true;
        Obs.reset ();
        let sim, fs = mk_sfs () in
        let q = qos () in
        let sf =
          in_proc sim (fun () ->
              match
                Sfs.open_swap fs ~name:"v" ~bytes:(256 * 1024) ~qos:q ()
              with
              | Ok s -> s
              | Error e -> failwith (Sfs.open_error_message e))
        in
        in_proc sim (fun () ->
            match
              Sfs.write_pages_commit sf ~page_index:0 ~npages:2
                ~pages:[ (0, 0); (1, 1) ] ~retire:[]
            with
            | Ok () -> ()
            | Error _ -> failwith "setup commit failed");
        Inject.arm (crash_all_plan ~seed);
        let torn =
          in_proc sim (fun () ->
              Sfs.write_pages_commit sf ~page_index:2 ~npages:4
                ~pages:[ (2, 2); (3, 3); (4, 4); (5, 5) ]
                ~retire:[])
        in
        Inject.disarm ();
        (match torn with
        | Error `Crashed -> ()
        | _ -> failwith "crash point did not fire");
        Sfs.detach_swap fs sf;
        let snap =
          in_proc sim (fun () ->
              (match Sfs.remount fs with
              | Ok _ -> ()
              | Error e -> failwith e);
              Sfs.snapshot fs)
        in
        let metrics = Json.to_string (Obs.Metrics.to_json ()) in
        Obs.set_enabled false;
        (snap, metrics)
      in
      run_once () = run_once ())

(* --- the experiment end to end --- *)

let crash_recover_end_to_end () =
  let r = Experiments.Crash_recover.run ~seed:11 ~rounds:2 () in
  check "no committed page lost" 0 r.Experiments.Crash_recover.total_lost;
  check "bystanders unperturbed" 0 r.Experiments.Crash_recover.clean_violations;
  checkb "pages restored on restart" true
    (r.Experiments.Crash_recover.total_restored > 0);
  checkb "verdict ok" true (Experiments.Crash_recover.ok r)

let suite =
  [ ( "crash.journal",
      [ Alcotest.test_case "append/replay round trip" `Quick journal_roundtrip;
        Alcotest.test_case "full latches" `Quick journal_full_latches;
        Alcotest.test_case "torn append quarantined" `Quick
          journal_torn_quarantine ] );
    ( "crash.sfs",
      [ Alcotest.test_case "duplicate open_swap name" `Quick open_swap_exists;
        Alcotest.test_case "commit/detach/remount/reattach" `Quick
          sfs_remount_reattach;
        Alcotest.test_case "bloks claim" `Quick bloks_claim ] );
    ( "crash.usd",
      [ Alcotest.test_case "retire resolves pending submissions" `Quick
          retire_fills_pending ] );
    ( "crash.properties",
      [ qtest remount_idempotent; qtest crash_run_deterministic ] );
    ( "crash.experiment",
      [ Alcotest.test_case "crash-recover verdict" `Slow
          crash_recover_end_to_end ] ) ]
