(* Tests for lib/policy and the policy-parameterised paged driver:
   pure policy/prefetch/write-behind units and properties, then
   integration through a full System. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Pure replacement policies ------------------------------------- *)

(* A self-contained residency model: tracks which pages the policy was
   told about and fakes the referenced bits the probe reads. *)
module Model = struct
  type t = {
    mutable resident : int list;  (* insertion order, oldest first *)
    referenced : (int, bool) Hashtbl.t;
  }

  let create () = { resident = []; referenced = Hashtbl.create 16 }
  let mem m p = List.mem p m.resident

  let insert m p =
    m.resident <- m.resident @ [ p ];
    Hashtbl.replace m.referenced p false

  let remove m p = m.resident <- List.filter (( <> ) p) m.resident
  let set_ref m p v = Hashtbl.replace m.referenced p v

  let probe m =
    { Policy.Replacement.resident = mem m;
      referenced =
        (fun p -> try Hashtbl.find m.referenced p with Not_found -> false);
      clear_referenced = (fun p -> Hashtbl.replace m.referenced p false) }
end

let fifo_matches_queue_model =
  QCheck.Test.make ~name:"fifo victims come out in insertion order" ~count:200
    QCheck.(list (pair bool (int_range 0 30)))
    (fun ops ->
      let m = Model.create () in
      let pol = Policy.Replacement.fifo () in
      List.for_all
        (fun (is_insert, p) ->
          if is_insert then begin
            if not (Model.mem m p) then begin
              Model.insert m p;
              pol.Policy.Replacement.insert p
            end;
            true
          end
          else
            match pol.Policy.Replacement.victim (Model.probe m) with
            | None -> m.Model.resident = []
            | Some v ->
              let expected = List.hd m.Model.resident in
              Model.remove m v;
              v = expected)
        ops)

(* Every policy's victims are pages it was told about and that are
   still resident — never a foreign (nailed, wired) frame, never a
   removed page. Interleaves inserts, removes, references (the
   referenced bit set) and victim calls. *)
let victims_always_resident =
  let mk_policy = function
    | 0 -> Policy.Replacement.fifo ()
    | 1 -> Policy.Replacement.clock ()
    | 2 ->
      let t = ref 0 in
      Policy.Replacement.lru ~now:(fun () -> incr t; !t) ()
    | _ ->
      let t = ref 0 in
      Policy.Replacement.wsclock ~window:4 ~now:(fun () -> incr t; !t) ()
  in
  QCheck.Test.make
    ~name:"clock/lru/wsclock victims are always tracked residents"
    ~count:200
    QCheck.(pair (int_range 0 3) (list (pair (int_range 0 3) (int_range 0 20))))
    (fun (which, ops) ->
      let m = Model.create () in
      let pol = mk_policy which in
      List.for_all
        (fun (kind, p) ->
          match kind with
          | 0 ->
            if not (Model.mem m p) then begin
              Model.insert m p;
              pol.Policy.Replacement.insert p
            end;
            true
          | 1 ->
            if Model.mem m p then begin
              Model.remove m p;
              pol.Policy.Replacement.remove p
            end;
            true
          | 2 ->
            if Model.mem m p then Model.set_ref m p true;
            true
          | _ ->
            (match pol.Policy.Replacement.victim (Model.probe m) with
            | None -> m.Model.resident = []
            | Some v ->
              let ok = Model.mem m v in
              Model.remove m v;
              ok))
        ops)

let clock_gives_second_chance () =
  let m = Model.create () in
  let pol = Policy.Replacement.clock () in
  List.iter
    (fun p ->
      Model.insert m p;
      pol.Policy.Replacement.insert p)
    [ 0; 1; 2 ];
  (* Page 0 is referenced: the sweep clears its bit and spares it,
     evicting page 1 instead. *)
  Model.set_ref m 0 true;
  (match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v ->
    check "referenced page spared" 1 v;
    Model.remove m v
  | None -> Alcotest.fail "no victim");
  (* The hand is now past page 0: unreferenced page 2 goes next, and
     only then page 0, its second chance spent. *)
  (match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v ->
    check "hand continues the sweep" 2 v;
    Model.remove m v
  | None -> Alcotest.fail "no victim");
  match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v -> check "second chance spent" 0 v
  | None -> Alcotest.fail "no victim"

let lru_evicts_least_recent () =
  let t = ref 0 in
  let m = Model.create () in
  let pol = Policy.Replacement.lru ~now:(fun () -> incr t; !t) () in
  List.iter
    (fun p ->
      Model.insert m p;
      pol.Policy.Replacement.insert p)
    [ 0; 1; 2 ];
  (* First sampling pass: pages 1 and 2 referenced, 0 not — 0 is the
     least recent. *)
  Model.set_ref m 1 true;
  Model.set_ref m 2 true;
  (match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v ->
    check "unreferenced page is oldest" 0 v;
    Model.remove m v
  | None -> Alcotest.fail "no victim");
  (* Now only page 2 is re-referenced: 1's stamp is older. *)
  Model.set_ref m 2 true;
  match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v -> check "stale stamp evicted" 1 v
  | None -> Alcotest.fail "no victim"

let wsclock_protects_working_set () =
  let t = ref 0 in
  let m = Model.create () in
  let pol = Policy.Replacement.wsclock ~window:100 ~now:(fun () -> !t) () in
  List.iter
    (fun p ->
      Model.insert m p;
      pol.Policy.Replacement.insert p)
    [ 0; 1; 2 ];
  (* All stamps are within the window, so the fallback (oldest stamp)
     must fire and selection still terminates. *)
  (match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v ->
    check "in-window fallback evicts oldest stamp" 0 v;
    Model.remove m v
  | None -> Alcotest.fail "no victim");
  (* Advance time beyond the window: page 1 re-referenced (stays in
     the working set), page 2 not (ages out). *)
  t := 200;
  Model.set_ref m 1 true;
  match pol.Policy.Replacement.victim (Model.probe m) with
  | Some v -> check "aged-out page evicted" 2 v
  | None -> Alcotest.fail "no victim"

(* --- Prefetch ------------------------------------------------------ *)

let stream_plan_is_fixed_window () =
  let pf = Policy.Prefetch.create (Policy.Prefetch.Stream 4) in
  Policy.Prefetch.record_fault pf 10;
  Alcotest.(check (list int))
    "window follows the fault" [ 11; 12; 13; 14 ]
    (Policy.Prefetch.plan pf ~page:10)

let adaptive_detects_sequential () =
  let pf = Policy.Prefetch.create (Policy.Prefetch.Adaptive 8) in
  List.iter (Policy.Prefetch.record_fault pf) [ 5; 6; 7 ];
  let plan = Policy.Prefetch.plan pf ~page:7 in
  checkb "plans ahead after a run" true (plan <> []);
  checkb "plans in stride order" true (List.hd plan = 8)

let adaptive_detects_stride () =
  let pf = Policy.Prefetch.create (Policy.Prefetch.Adaptive 8) in
  List.iter (Policy.Prefetch.record_fault pf) [ 0; 3; 6; 9 ];
  let plan = Policy.Prefetch.plan pf ~page:9 in
  checkb "strided plan nonempty" true (plan <> []);
  checkb "first candidate follows the stride" true (List.hd plan = 12)

let adaptive_ignores_random () =
  let pf = Policy.Prefetch.create (Policy.Prefetch.Adaptive 8) in
  List.iter (Policy.Prefetch.record_fault pf) [ 17; 3; 29; 11; 23 ];
  Alcotest.(check (list int))
    "no pattern, no plan" [] (Policy.Prefetch.plan pf ~page:23)

(* --- Write-behind -------------------------------------------------- *)

(* The first blok and the length of a write-behind run. *)
let run_span run = ((List.hd run).Policy.Writeback.blok, List.length run)

let writeback_coalesces_contiguous () =
  let txns = ref [] in
  let write run = txns := run_span run :: !txns in
  let wb = Policy.Writeback.create ~max_batch:8 () in
  List.iter
    (fun (p, b) -> Policy.Writeback.enqueue wb ~page:p ~blok:b ~frame:(100 + p))
    [ (0, 5); (1, 3); (2, 9); (3, 4) ];
  let freed = Policy.Writeback.flush ~write wb in
  (* Bloks 3,4,5 coalesce; 9 stands alone. *)
  Alcotest.(check (list (pair int int)))
    "contiguous bloks become one transaction"
    [ (3, 3); (9, 1) ] (List.sort compare !txns);
  check "all frames freed" 4 (List.length freed);
  check "buffer drained" 0 (Policy.Writeback.pending wb);
  check "one write per coalesced run" 2 (List.length !txns)

(* The race the commit-point design closes: while one run's write
   blocks on disk, entries of *later* runs must still be rescuable —
   a concurrent fault on one of them must win the frame back rather
   than find the buffer mysteriously empty. *)
let writeback_rescuable_during_flush () =
  let rescued = ref None in
  let writes = ref [] in
  let wb = Policy.Writeback.create ~max_batch:8 () in
  let write run =
    let blok, nbloks = run_span run in
    writes := (blok, nbloks) :: !writes;
    (* "During" the first run's disk time, fault page 9 (blok 9, a
       later run): it must still be parked and rescuable. *)
    if blok = 0 then rescued := Policy.Writeback.rescue wb ~page:9
  in
  List.iter
    (fun (p, b) -> Policy.Writeback.enqueue wb ~page:p ~blok:b ~frame:(100 + p))
    [ (0, 0); (1, 1); (9, 9) ];
  let freed = Policy.Writeback.flush ~write wb in
  (match !rescued with
  | Some e -> check "rescued mid-flush entry is page 9" 9 e.Policy.Writeback.page
  | None -> Alcotest.fail "page 9 was not rescuable during the first write");
  Alcotest.(check (list (pair int int)))
    "rescued page never written" [ (0, 2) ] !writes;
  Alcotest.(check (list (pair int int)))
    "only the written run's frames freed"
    [ (0, 100); (1, 101) ] freed;
  check "buffer drained" 0 (Policy.Writeback.pending wb)

(* Commit fires per run at write-issue time (not when the whole flush
   returns), release only after that run's write has completed. *)
let writeback_commit_at_issue () =
  let events = ref [] in
  let ev e = events := e :: !events in
  let wb = Policy.Writeback.create ~max_batch:8 () in
  List.iter
    (fun (p, b) -> Policy.Writeback.enqueue wb ~page:p ~blok:b ~frame:p)
    [ (0, 0); (1, 1); (5, 5) ];
  ignore
    (Policy.Writeback.flush wb
       ~commit:(fun ~page -> ev (Printf.sprintf "commit %d" page))
       ~release:(fun ~page ~frame:_ -> ev (Printf.sprintf "release %d" page))
       ~write:(fun run ->
         let blok, nbloks = run_span run in
         ev (Printf.sprintf "write %d+%d" blok nbloks)));
  Alcotest.(check (list string))
    "per-run commit -> write -> release ordering"
    [ "commit 0"; "commit 1"; "write 0+2"; "release 0"; "release 1";
      "commit 5"; "write 5+1"; "release 5" ]
    (List.rev !events)

let writeback_read_your_writes =
  (* Model a store: page -> version. Writes park in the buffer; the
     "disk" only sees a version at flush time. A read must observe the
     latest version — through the buffer (rescue) when parked. *)
  QCheck.Test.make
    ~name:"write-behind preserves read-your-writes" ~count:200
    QCheck.(list (pair (int_range 0 2) (int_range 0 7)))
    (fun ops ->
      let disk = Array.make 8 0 in
      let latest = Array.make 8 0 in
      let version = ref 0 in
      let wb_versions = Hashtbl.create 8 in
      (* Pages rescued back into residency: their frame holds the
         latest copy until they are evicted (parked) again. *)
      let resident = Hashtbl.create 8 in
      let wb = Policy.Writeback.create ~max_batch:4 () in
      let write run =
        let blok, nbloks = run_span run in
        for b = blok to blok + nbloks - 1 do
          disk.(b) <- Hashtbl.find wb_versions b;
          Hashtbl.remove wb_versions b
        done
      in
      List.for_all
        (fun (kind, p) ->
          match kind with
          | 0 ->
            (* Dirty eviction of page p with a fresh version. *)
            if not (Policy.Writeback.member wb ~page:p) then begin
              incr version;
              latest.(p) <- !version;
              Hashtbl.remove resident p;
              Hashtbl.replace wb_versions p !version;
              if Policy.Writeback.full wb then
                ignore (Policy.Writeback.flush ~write wb);
              Policy.Writeback.enqueue wb ~page:p ~blok:p ~frame:p
            end;
            true
          | 1 ->
            (* Read of page p: resident copy, else rescue if parked,
               else the disk copy. *)
            let seen =
              match Hashtbl.find_opt resident p with
              | Some v -> v
              | None ->
                (match Policy.Writeback.rescue wb ~page:p with
                | Some e ->
                  let v = Hashtbl.find wb_versions p in
                  Hashtbl.remove wb_versions p;
                  Hashtbl.replace resident p v;
                  check "rescued entry is page's own" p
                    e.Policy.Writeback.page;
                  v
                | None -> disk.(p))
            in
            seen = latest.(p)
          | _ ->
            ignore (Policy.Writeback.flush ~write wb);
            Hashtbl.length wb_versions = 0)
        ops)

(* The flush path issues real USD transactions: contiguous parked
   pages of a file-store-backed writer coalesce into fewer (and equal
   read-your-writes) transactions than entries. *)
let writeback_coalesces_usd_txns () =
  let sys = Experiments.Harness.fresh_system () in
  Experiments.Harness.run_in_sim sys (fun () ->
      let usd = System.usd sys in
      let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
      let client =
        match Usbs.Usd.admit usd ~name:"wb-test" ~qos () with
        | Ok c -> c
        | Error e -> failwith e
      in
      let store = Usbs.File_store.create usd in
      let file =
        match
          Usbs.File_store.create_file store ~name:"wb.dat" ~bytes:(64 * 8192)
        with
        | Ok f -> f
        | Error e -> failwith e
      in
      let wb = Policy.Writeback.create ~max_batch:8 () in
      let write run =
        let blok, nbloks = run_span run in
        Usbs.Usd.transact_exn usd client Usbs.Usd.Write
          ~lba:(Usbs.File_store.lba_of_page file blok)
          ~nblocks:(nbloks * 16)
      in
      List.iter
        (fun (p, b) ->
          Policy.Writeback.enqueue wb ~page:p ~blok:b ~frame:p)
        [ (0, 8); (1, 6); (2, 7); (3, 20); (4, 21); (5, 30) ];
      let before = Usbs.Usd.txn_count client in
      let freed = Policy.Writeback.flush ~write wb in
      check "six entries freed" 6 (List.length freed);
      check "three coalesced transactions, not six" 3
        (Usbs.Usd.txn_count client - before))

(* --- Integration through a full System ----------------------------- *)

let small_sys () =
  let config = { System.default_config with main_memory_mb = 2 } in
  System.create ~config ()

let add_domain_exn sys ~name ~guarantee ~optimistic =
  match System.add_domain sys ~name ~guarantee ~optimistic () with
  | Ok d -> d
  | Error e -> failwith (System.error_message e)

let alloc_exn d ~bytes =
  match System.alloc_stretch d ~bytes () with
  | Ok s -> s
  | Error e -> failwith e

let in_domain sys d f =
  let result = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"test" (fun () ->
         result := Some (f ())));
  let sim = System.sim sys in
  System.run sys ~until:(Time.add (Sim.now sim) (Time.sec 300));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "domain thread did not finish"

(* Sequential write+read over 6 pages with 2 frames, default policy:
   the USD transaction stream must reproduce the seed driver's
   eviction order exactly. FIFO predicts: the write pass cleans pages
   0..3 in order (bloks assigned first-fit, so in cleaning order);
   the read pass cleans 4 then 5 (still dirty) and reads bloks back in
   page order, clean evictions writing nothing. *)
let default_policy_matches_seed_trace () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:2 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(6 * Addr.page_size) in
  let info =
    in_domain sys d (fun () ->
        let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
        let _, h =
          match
            System.bind_paged d ~initial_frames:2
              ~swap_bytes:(16 * Addr.page_size) ~qos s ()
          with
          | Ok x -> x
          | Error e -> failwith (System.error_message e)
        in
        for i = 0 to 5 do
          Domains.access d.System.dom (Stretch.page_base s i) `Write
        done;
        for i = 0 to 5 do
          Domains.access d.System.dom (Stretch.page_base s i) `Read
        done;
        Sd_paged.info h)
  in
  (* Replay the swap client's transactions from the USD trace. *)
  let txns = ref [] in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Txn { client = "app.swap"; op; lba; _ } ->
        txns := (op, lba) :: !txns
      | _ -> ())
    (Usbs.Usd.trace (System.usd sys));
  let txns = List.rev !txns in
  (* Normalise lbas to blok ranks (bloks are handed out first-fit, so
     rank = allocation order). *)
  let distinct =
    List.sort_uniq compare (List.map snd txns)
  in
  let rank lba =
    let rec go i = function
      | [] -> assert false
      | x :: tl -> if x = lba then i else go (i + 1) tl
    in
    go 0 distinct
  in
  let got =
    List.map
      (fun (op, lba) ->
        ((match op with Usbs.Usd.Write -> "W" | Usbs.Usd.Read -> "R"), rank lba))
      txns
  in
  Alcotest.(check (list (pair string int)))
    "seed FIFO transaction order"
    [ ("W", 0); ("W", 1); ("W", 2); ("W", 3);  (* write pass evicts 0-3 *)
      ("W", 4); ("R", 0);                      (* read 0 evicts dirty 4 *)
      ("W", 5); ("R", 1);                      (* read 1 evicts dirty 5 *)
      ("R", 2); ("R", 3); ("R", 4); ("R", 5) ] (* clean evictions: reads only *)
    got;
  check "demand zeros" 6 info.Sd_paged.demand_zeros;
  check "page ins" 6 info.Sd_paged.page_ins;
  check "page outs" 6 info.Sd_paged.page_outs;
  check "nothing prefetched by default" 0 info.Sd_paged.prefetched

(* A churning paged domain (under each eviction policy) must never
   disturb a neighbour's nailed frames: policies only nominate pages
   of their own stretch. *)
let policies_never_evict_nailed () =
  List.iter
    (fun policy_str ->
      let policy =
        match Policy.Spec.of_string policy_str with
        | Ok p -> p
        | Error e -> failwith e
      in
      let sys = small_sys () in
      let nailed_d = add_domain_exn sys ~name:"nailed" ~guarantee:4 ~optimistic:0 in
      let ns = alloc_exn nailed_d ~bytes:(4 * Addr.page_size) in
      let paged_d = add_domain_exn sys ~name:"paged" ~guarantee:2 ~optimistic:0 in
      let ps = alloc_exn paged_d ~bytes:(8 * Addr.page_size) in
      in_domain sys nailed_d (fun () ->
          (match System.bind_nailed nailed_d ns with
          | Ok _ -> ()
          | Error e -> failwith (System.error_message e));
          for i = 0 to 3 do
            Domains.access nailed_d.System.dom (Stretch.page_base ns i) `Write
          done);
      let nailed_faults = Domains.faults_taken nailed_d.System.dom in
      in_domain sys paged_d (fun () ->
          let qos =
            Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
          in
          (match
             System.bind_paged paged_d ~initial_frames:2 ~policy
               ~swap_bytes:(32 * Addr.page_size) ~qos ps ()
           with
          | Ok _ -> ()
          | Error e -> failwith (System.error_message e));
          for _ = 1 to 3 do
            for i = 0 to 7 do
              Domains.access paged_d.System.dom (Stretch.page_base ps i) `Write
            done
          done);
      (* The nailed domain's pages are still mapped: touching them
         takes no further faults under any policy. *)
      in_domain sys nailed_d (fun () ->
          for i = 0 to 3 do
            Domains.access nailed_d.System.dom (Stretch.page_base ns i) `Read
          done);
      check
        (Printf.sprintf "no new faults on nailed domain under %s" policy_str)
        nailed_faults
        (Domains.faults_taken nailed_d.System.dom))
    [ "fifo"; "clock"; "lru"; "wsclock" ]

(* Write-behind in the driver: dirty evictions park; faulting a parked
   page rescues it from the buffer with no disk traffic. *)
let writeback_rescue_in_driver () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:2 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(6 * Addr.page_size) in
  let policy =
    match Policy.Spec.of_string "fifo+wb4" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let info =
    in_domain sys d (fun () ->
        let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
        let _, h =
          match
            System.bind_paged d ~initial_frames:2 ~policy
              ~swap_bytes:(16 * Addr.page_size) ~qos s ()
          with
          | Ok x -> x
          | Error e -> failwith (System.error_message e)
        in
        (* Build a residency of one dirty page (0, rewritten after a
           round trip through swap) and one clean page (1, read back
           from swap). Faulting page 2 then parks dirty page 0 but
           takes clean page 1's frame — page 0 stays in the buffer,
           and touching it again must rescue it without disk I/O. *)
        for i = 0 to 3 do
          Domains.access d.System.dom (Stretch.page_base s i) `Write
        done;
        Domains.access d.System.dom (Stretch.page_base s 0) `Read;
        Domains.access d.System.dom (Stretch.page_base s 1) `Read;
        Domains.access d.System.dom (Stretch.page_base s 0) `Write;
        Domains.access d.System.dom (Stretch.page_base s 2) `Read;
        Domains.access d.System.dom (Stretch.page_base s 0) `Read;
        Sd_paged.info h)
  in
  checkb "rescue happened" true (info.Sd_paged.rescues >= 1);
  (* Three demand reads hit the disk (pages 0, 1, 2); the rescue of
     page 0 costs none. *)
  check "rescue costs no page-in" 3 info.Sd_paged.page_ins;
  checkb "flushes are batched" true
    (info.Sd_paged.wb_flushes >= 1
    && info.Sd_paged.wb_flushes < info.Sd_paged.page_outs)

(* Adaptive read-ahead's non-contiguous extras: with stride-4
   accesses no read-ahead candidate is the demand page's neighbour, so
   every prefetched page comes through the chain fetch of strided
   pages whose bloks are consecutive on disk. Nine writes into eight
   frames park the first eight pages (bloks 0-7, in page order) and
   the full buffer's flush returns their frames to the pool; reading
   the first eight pages back then finds spare frames for the
   extras. *)
let adaptive_fetches_strided_extras () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:8 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(36 * Addr.page_size) in
  let policy =
    match Policy.Spec.of_string "fifo+ad8+wb8" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let got =
    in_domain sys d (fun () ->
        let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
        let _, h =
          match
            System.bind_paged d ~initial_frames:8 ~policy
              ~swap_bytes:(64 * Addr.page_size) ~qos s ()
          with
          | Ok x -> x
          | Error e -> failwith (System.error_message e)
        in
        for i = 0 to 8 do
          Domains.access d.System.dom (Stretch.page_base s (4 * i)) `Write
        done;
        for i = 0 to 7 do
          Domains.access d.System.dom (Stretch.page_base s (4 * i)) `Read
        done;
        Sd_paged.info h)
  in
  let open Sd_paged in
  checkb "read-ahead fetched extras" true (got.prefetched > 0);
  checkb "hits + waste <= prefetched" true
    (got.prefetch_hits + got.prefetch_waste <= got.prefetched);
  (* Four demand reads (pages 0, 4, 16, 28) and four extras (8, 12,
     20, 24); the last read evicts page 32 (parked) and page 0. *)
  Alcotest.(check string)
    "whole info pinned"
    "page_ins 4, page_outs 8, demand_zeros 9, evictions 10, prefetched 4, \
     prefetch_hits 0, prefetch_waste 0, wb_flushes 1, rescues 0, \
     lost_pages 0, rebloks 0, shed_frames 0, restored_pages 0, \
     wb_degraded false, swap_exhausted false, crashed false"
    (Printf.sprintf
       "page_ins %d, page_outs %d, demand_zeros %d, evictions %d, \
        prefetched %d, prefetch_hits %d, prefetch_waste %d, wb_flushes %d, \
        rescues %d, lost_pages %d, rebloks %d, shed_frames %d, \
        restored_pages %d, wb_degraded %b, swap_exhausted %b, crashed %b"
       got.page_ins got.page_outs got.demand_zeros got.evictions
       got.prefetched got.prefetch_hits got.prefetch_waste
       got.wb_flushes got.rescues got.lost_pages got.rebloks
       got.shed_frames got.restored_pages got.wb_degraded
       got.swap_exhausted got.crashed)

(* End-to-end: the policy-compare experiment differentiates policies
   on miss rate without QoS violations. *)
let policy_compare_smoke () =
  let policies =
    List.map
      (fun s ->
        match Policy.Spec.of_string s with
        | Ok p -> p
        | Error e -> failwith e)
      [ "fifo"; "fifo+ra8" ]
  in
  let r =
    Experiments.Policy_compare.run ~duration:(Time.sec 20) ~policies ()
  in
  check "six cells (2 policies x 3 patterns)" 6
    (List.length r.Experiments.Policy_compare.rows);
  List.iter
    (fun row ->
      let open Experiments.Policy_compare in
      checkb
        (Printf.sprintf "%s/%s made progress" row.policy row.pattern)
        true (row.accesses > 0);
      checkb
        (Printf.sprintf "%s/%s miss rate sane" row.policy row.pattern)
        true
        (Float.is_nan row.miss_rate
        || (row.miss_rate >= 0.0 && row.miss_rate <= 1.5));
      check
        (Printf.sprintf "%s/%s no QoS violations" row.policy row.pattern)
        0 row.violations)
    r.Experiments.Policy_compare.rows;
  let miss policy pattern =
    let row =
      List.find
        (fun row ->
          row.Experiments.Policy_compare.policy = policy
          && row.Experiments.Policy_compare.pattern = pattern)
        r.Experiments.Policy_compare.rows
    in
    row.Experiments.Policy_compare.miss_rate
  in
  checkb "read-ahead cuts the sequential miss rate" true
    (miss "fifo+ra8" "seq" < miss "fifo" "seq");
  checkb "verdict" true (Experiments.Policy_compare.ok r);
  (* One violating or idle cell fails the whole comparison. *)
  let with_first f =
    match r.Experiments.Policy_compare.rows with
    | row :: rest -> { r with Experiments.Policy_compare.rows = f row :: rest }
    | [] -> r
  in
  checkb "a violation fails the verdict" false
    (Experiments.Policy_compare.ok
       (with_first (fun row ->
            { row with Experiments.Policy_compare.violations = 1 })));
  checkb "an idle cell fails the verdict" false
    (Experiments.Policy_compare.ok
       (with_first (fun row ->
            { row with Experiments.Policy_compare.accesses = 0 })))

let suite =
  [ ( "policy.replacement",
      [ qtest fifo_matches_queue_model;
        qtest victims_always_resident;
        Alcotest.test_case "clock gives a second chance" `Quick
          clock_gives_second_chance;
        Alcotest.test_case "lru evicts least recent" `Quick
          lru_evicts_least_recent;
        Alcotest.test_case "wsclock protects the working set" `Quick
          wsclock_protects_working_set ] );
    ( "policy.prefetch",
      [ Alcotest.test_case "stream window" `Quick stream_plan_is_fixed_window;
        Alcotest.test_case "adaptive sequential" `Quick
          adaptive_detects_sequential;
        Alcotest.test_case "adaptive stride" `Quick adaptive_detects_stride;
        Alcotest.test_case "adaptive random" `Quick adaptive_ignores_random
      ] );
    ( "policy.writeback",
      [ Alcotest.test_case "coalesces contiguous bloks" `Quick
          writeback_coalesces_contiguous;
        Alcotest.test_case "later runs rescuable during flush" `Quick
          writeback_rescuable_during_flush;
        Alcotest.test_case "commit at issue, release at completion" `Quick
          writeback_commit_at_issue;
        qtest writeback_read_your_writes;
        Alcotest.test_case "coalesced USD transactions" `Quick
          writeback_coalesces_usd_txns ] );
    ( "policy.driver",
      [ Alcotest.test_case "default policy matches seed trace" `Quick
          default_policy_matches_seed_trace;
        Alcotest.test_case "policies never evict nailed frames" `Quick
          policies_never_evict_nailed;
        Alcotest.test_case "write-behind rescue in driver" `Quick
          writeback_rescue_in_driver;
        Alcotest.test_case "adaptive read-ahead fetches strided extras"
          `Quick adaptive_fetches_strided_extras ] );
    ( "policy.compare",
      [ Alcotest.test_case "policy-compare smoke" `Slow policy_compare_smoke ]
    ) ]
