(* Tests for the User-Safe Backing Store: IO channels, the USD
   scheduler (EDF + laxity + roll-over) and the swap filesystem. *)

open Engine
open Usbs

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Qos --- *)

let qos_validation () =
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  Alcotest.(check (float 1e-9)) "share" 0.1 (Qos.share q);
  checkb "default x false" false q.Qos.extra;
  check "default laxity" (Time.ms 10) q.Qos.laxity;
  Alcotest.check_raises "slice > period"
    (Invalid_argument "Qos.make: slice exceeds period") (fun () ->
      ignore (Qos.make ~period:(Time.ms 10) ~slice:(Time.ms 20) ()))

(* --- Io_channel --- *)

let io_channel_fifo () =
  let ch = Io_channel.create ~depth:4 in
  checkb "send ok" true (Io_channel.try_send ch 1);
  checkb "send ok" true (Io_channel.try_send ch 2);
  Alcotest.(check (option int)) "fifo" (Some 1) (Io_channel.try_recv ch);
  Alcotest.(check (option int)) "fifo" (Some 2) (Io_channel.try_recv ch);
  Alcotest.(check (option int)) "empty" None (Io_channel.try_recv ch)

let io_channel_backpressure () =
  let sim = Sim.create () in
  let ch = Io_channel.create ~depth:2 in
  let sent = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for i = 1 to 4 do
           Io_channel.send ch i;
           sent := i :: !sent
         done));
  Sim.run sim;
  (* Only two fit; the producer is blocked on the third. *)
  check "producer blocked at capacity" 2 (List.length !sent);
  let drained = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 4 do
           drained := Io_channel.recv ch :: !drained
         done));
  Sim.run sim;
  Alcotest.(check (list int)) "all delivered in order" [ 1; 2; 3; 4 ]
    (List.rev !drained)

(* --- Usd --- *)

let mk_usd ?rollover () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  (sim, Usd.create ?rollover sim dm)

let admit_exn u ~name ~qos =
  match Usd.admit u ~name ~qos () with
  | Ok c -> c
  | Error e -> failwith e

let usd_admission_control () =
  let _, u = mk_usd () in
  let q50 = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  ignore (admit_exn u ~name:"a" ~qos:q50);
  ignore (admit_exn u ~name:"b" ~qos:q50);
  (match Usd.admit u ~name:"c" ~qos:q50 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overbooked disk admission accepted")

let usd_single_client_txn () =
  let sim, u = mk_usd () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  let c = admit_exn u ~name:"a" ~qos:q in
  let completions = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for i = 0 to 9 do
           Usd.transact_exn u c Usd.Read ~lba:(i * 16) ~nblocks:16;
           incr completions
         done));
  Sim.run ~until:(Time.sec 2) sim;
  check "all transactions completed" 10 !completions;
  check "counted" 10 (Usd.txn_count c);
  check "bytes" (10 * 16 * 512) (Usd.bytes_moved c);
  checkb "time charged" true (Usd.used_time c > 0)

let usd_edf_shares () =
  let sim, u = mk_usd () in
  (* Two flat-out writers with a 4:1 guarantee split. *)
  let qa = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 100) () in
  let qb = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  let a = admit_exn u ~name:"a" ~qos:qa in
  let b = admit_exn u ~name:"b" ~qos:qb in
  let writer client region () =
    let pos = ref 0 in
    let rec loop () =
      Usd.transact_exn u client Usd.Write ~lba:(region + !pos) ~nblocks:16;
      pos := (!pos + 16) mod 100_000;
      loop ()
    in
    loop ()
  in
  ignore (Proc.spawn sim (writer a 0));
  ignore (Proc.spawn sim (writer b 2_000_000));
  Sim.run ~until:(Time.sec 30) sim;
  (* Disk *time* is shared exactly 4:1; the transaction-count ratio is
     higher because the larger slice amortises the rotational penalty
     over runs of consecutive writes (the effect the paper describes
     when discussing per-client transaction batching). *)
  let tratio = float_of_int (Usd.used_time a) /. float_of_int (Usd.used_time b) in
  checkb "time shared 4:1 within 10%" true (tratio > 3.6 && tratio < 4.4);
  checkb "count ratio at least 4" true
    (float_of_int (Usd.txn_count a) /. float_of_int (Usd.txn_count b) >= 3.6)

let usd_lax_charge_bounded () =
  let sim, u = mk_usd () in
  let q =
    Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 100) ~laxity:(Time.ms 10) ()
  in
  let c = admit_exn u ~name:"a" ~qos:q in
  (* A client that submits with small gaps: laxity keeps it runnable,
     and no single lax charge may exceed l. *)
  ignore
    (Proc.spawn sim (fun () ->
         for i = 0 to 49 do
           Usd.transact_exn u c Usd.Read ~lba:(i * 16) ~nblocks:16;
           Proc.sleep (Time.ms 3)
         done));
  Sim.run ~until:(Time.sec 5) sim;
  let max_lax = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usd.Lax { dur; _ } -> if dur > !max_lax then max_lax := dur
      | _ -> ())
    (Usd.trace u);
  checkb "some lax time charged" true (Usd.lax_time c > 0);
  checkb "no lax charge exceeds l" true (!max_lax <= Time.ms 10)

let usd_short_block_problem () =
  (* Same narrow-gap workload with l = 0: an empty stream stays
     runnable, so the client is picked with nothing queued right after
     every transaction, idled, and only restarts at period boundaries —
     ~1 transaction per period. *)
  let sim, u = mk_usd () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 100) ~laxity:0 () in
  let c = admit_exn u ~name:"a" ~qos:q in
  ignore
    (Proc.spawn sim (fun () ->
         let rec loop i =
           Usd.transact_exn u c Usd.Read ~lba:(i * 16) ~nblocks:16;
           Proc.sleep (Time.ms 3);
           loop (i + 1)
         in
         loop 0));
  Sim.run ~until:(Time.sec 5) sim;
  (* 5 s / 250 ms = 20 periods; plain EDF yields roughly one txn each. *)
  checkb "collapsed to ~1 txn per period" true (Usd.txn_count c <= 25)

let usd_rollover_carry () =
  let sim, u = mk_usd () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  let c = admit_exn u ~name:"a" ~qos:q in
  ignore
    (Proc.spawn sim (fun () ->
         let rec loop i =
           (* ~11 ms writes: always overruns the tail of the slice. *)
           Usd.transact_exn u c Usd.Write ~lba:(i * 16 mod 1_000_000) ~nblocks:16;
           loop (i + 1)
         in
         loop 0));
  Sim.run ~until:(Time.sec 20) sim;
  let share =
    float_of_int (Usd.used_time c) /. float_of_int (Time.sec 20)
  in
  checkb "share stays close to 10%" true (share < 0.115)

let usd_slack_events () =
  let sim, u = mk_usd () in
  let q =
    Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) ~extra:true ()
  in
  let c = admit_exn u ~name:"a" ~qos:q in
  ignore
    (Proc.spawn sim (fun () ->
         let rec loop i =
           Usd.transact_exn u c Usd.Read ~lba:(i * 16 mod 1_000_000) ~nblocks:16;
           loop (i + 1)
         in
         loop 0));
  Sim.run ~until:(Time.sec 5) sim;
  let slack = ref 0 in
  Trace.iter
    (fun _ ev -> match ev with Usd.Slack _ -> incr slack | _ -> ())
    (Usd.trace u);
  checkb "x client received slack time" true (!slack > 0)

let usd_allocation_trace () =
  let sim, u = mk_usd () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  let c = admit_exn u ~name:"a" ~qos:q in
  ignore
    (Proc.spawn sim (fun () ->
         Usd.transact_exn u c Usd.Read ~lba:0 ~nblocks:16));
  Sim.run ~until:(Time.of_ms_float 2600.0) sim;
  let allocs = ref 0 in
  Trace.iter
    (fun _ ev -> match ev with Usd.Alloc _ -> incr allocs | _ -> ())
    (Usd.trace u);
  (* One allocation per 250 ms period boundary. *)
  checkb "period allocations recorded" true (!allocs >= 9 && !allocs <= 11)

(* Every event kind, both media-error flavours among them, recorded as
   int rows and read back from a trace that spans many chunks. Each
   field has a witness outside the trace: the requests each client made
   and the outcomes it got back, in order, and the service and lax time
   the USD charged it. *)
let usd_trace_round_trip () =
  let plan =
    { Inject.default_plan with
      blok_faults =
        [ { Inject.bf_first = 0; bf_len = 16; bf_op = None;
            bf_transient = None };
          { Inject.bf_first = 4096; bf_len = 16; bf_op = None;
            bf_transient = Some max_int } ] }
  in
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm @@ fun () ->
  let sim, u = mk_usd () in
  let pager =
    admit_exn u ~name:"pager"
      ~qos:(Qos.make ~period:(Time.ms 50) ~slice:(Time.ms 20)
              ~laxity:(Time.ms 2) ())
  in
  let bulk =
    admit_exn u ~name:"bulk"
      ~qos:(Qos.make ~period:(Time.ms 100) ~slice:(Time.ms 5) ~extra:true
              ~laxity:0 ())
  in
  (* what each client asked for and got, newest first *)
  let asked = Hashtbl.create 2 in
  let run name c request =
    Hashtbl.replace asked name [];
    ignore
      (Proc.spawn sim (fun () ->
           let rec loop i =
             let op, lba, think = request i in
             let r = Usd.transact u c op ~lba ~nblocks:16 in
             Hashtbl.replace asked name
               ((op, lba, r) :: Hashtbl.find asked name);
             Proc.sleep think;
             loop (i + 1)
           in
           loop 0))
  in
  let op i = if i mod 2 = 0 then Usd.Read else Usd.Write in
  (* the pager hits the persistent range on every 7th request and the
     transient one on every 11th, and thinks for 1-3 ms in between *)
  run "pager" pager (fun i ->
      let lba =
        if i mod 7 = 3 then 0
        else if i mod 11 = 5 then 4096
        else 8192 + (16 * (i mod 1_000))
      in
      (op i, lba, Time.ms (1 + (i mod 3))));
  run "bulk" bulk (fun i -> (op i, 32_768 + (16 * (i mod 1_000)), 0));
  Sim.run ~until:(Time.sec 30) sim;
  let rows = Trace.to_list (Usd.trace u) in
  checkb "trace spans many chunks" true (Trace.length (Usd.trace u) > 3_000);
  check "length agrees" (Trace.length (Usd.trace u)) (List.length rows);
  checkb "times never fall" true
    (fst
       (List.fold_left
          (fun (ok, last) (at, _) -> (ok && at >= last, at))
          (true, 0) rows));
  let kinds = Hashtbl.create 8 in
  let seen k = Hashtbl.replace kinds k () in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Usd.Txn _ -> seen "txn"
      | Usd.Txn_error { media = { persistent = true; _ }; _ } ->
        seen "persistent error"
      | Usd.Txn_error { media = { persistent = false; _ }; _ } ->
        seen "transient error"
      | Usd.Alloc _ -> seen "alloc"
      | Usd.Lax _ -> seen "lax"
      | Usd.Slack _ -> seen "slack")
    rows;
  List.iter
    (fun k -> checkb ("some " ^ k) true (Hashtbl.mem kinds k))
    [ "txn"; "persistent error"; "transient error"; "alloc"; "lax"; "slack" ];
  let check_client name c ~period =
    let mine =
      List.filter
        (fun (_, ev) ->
          match ev with
          | Usd.Txn { client; _ } | Usd.Txn_error { client; _ }
          | Usd.Alloc { client } | Usd.Lax { client; _ }
          | Usd.Slack { client; _ } -> client = name)
        rows
    in
    let served =
      Array.of_list @@ List.filter_map
        (fun (_, ev) ->
          match ev with
          | Usd.Txn { op; lba; nblocks; dur; _ } ->
            Some (op, Some (lba, nblocks), Ok (), dur)
          | Usd.Txn_error { op; lba; nblocks; dur; media; _ } ->
            Some (op, Some (lba, nblocks), Error (`Media media), dur)
          | Usd.Slack { op; dur; _ } -> Some (op, None, Ok (), dur)
          | Usd.Alloc _ | Usd.Lax _ -> None)
        mine
    in
    let lax =
      List.fold_left
        (fun acc (_, ev) -> match ev with Usd.Lax { dur; _ } -> acc + dur | _ -> acc)
        0 mine
    in
    let allocs =
      List.length
        (List.filter (fun (_, ev) -> match ev with Usd.Alloc _ -> true | _ -> false) mine)
    in
    let asked = List.rev (Hashtbl.find asked name) in
    (* the last request may have been served as the run stopped *)
    let n = List.length asked in
    checkb (name ^ ": one row per request") true
      (Array.length served = n || Array.length served = n + 1);
    List.iteri
      (fun i (op, lba, r) ->
        let op', at, r', dur = served.(i) in
        checkb (name ^ ": op") true (op = op');
        checkb (name ^ ": lba and size") true
          (match at with None -> true | Some (l, nb) -> l = lba && nb = 16);
        checkb (name ^ ": outcome") true (r = r');
        checkb (name ^ ": positive duration") true (dur > 0))
      asked;
    let busy = Array.fold_left (fun acc (_, _, _, d) -> acc + d) 0 served in
    check (name ^ ": service and lax time charged") (Usd.used_time c)
      (busy + lax);
    check (name ^ ": lax time charged") (Usd.lax_time c) lax;
    (* one allocation per period boundary passed *)
    checkb (name ^ ": allocations") true
      (abs (allocs - (Time.sec 30 / period)) <= 1)
  in
  check_client "pager" pager ~period:(Time.ms 50);
  check_client "bulk" bulk ~period:(Time.ms 100)

(* --- Sfs --- *)

let mk_sfs () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usd.create sim dm in
  (sim, u, Sfs.create ~first_block:0 ~nblocks:1_000_000 u)

let sfs_extent_allocation () =
  let _, _, fs = mk_sfs () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  let sf1 =
    match Sfs.open_swap fs ~name:"a" ~bytes:(1024 * 1024) ~qos:q () with
    | Ok s -> s
    | Error e -> failwith (Sfs.open_error_message e)
  in
  check "1MB = 128 pages" 128 (Sfs.page_capacity sf1);
  check "extent blocks" (128 * 16) (Sfs.extent_blocks sf1);
  let before = Sfs.free_blocks fs in
  let sf2 =
    match Sfs.open_swap fs ~name:"b" ~bytes:(512 * 1024) ~qos:q () with
    | Ok s -> s
    | Error e -> failwith (Sfs.open_error_message e)
  in
  checkb "extents disjoint" true
    (Sfs.extent_start sf2 >= Sfs.extent_start sf1 + Sfs.extent_blocks sf1
     || Sfs.extent_start sf2 + Sfs.extent_blocks sf2 <= Sfs.extent_start sf1);
  Sfs.close_swap fs sf2;
  check "space returned and coalesced" before (Sfs.free_blocks fs)

let sfs_space_exhaustion () =
  let _, _, fs = mk_sfs () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 1) () in
  (* The region holds 1,000,000 blocks = 512 MB; ask for more. *)
  match Sfs.open_swap fs ~name:"big" ~bytes:(1_100_000 * 512) ~qos:q () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized extent accepted"

let sfs_data_path () =
  let sim, _, fs = mk_sfs () in
  let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  let sf =
    match Sfs.open_swap fs ~name:"a" ~bytes:(256 * 1024) ~qos:q () with
    | Ok s -> s
    | Error e -> failwith (Sfs.open_error_message e)
  in
  let ok = ref false in
  ignore
    (Proc.spawn sim (fun () ->
         (match Sfs.write_page sf ~page_index:3 with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write_page failed");
         (match Sfs.read_page sf ~page_index:3 with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "read_page failed");
         ok := true));
  Sim.run ~until:(Time.sec 1) sim;
  checkb "write+read completed" true !ok;
  Alcotest.check_raises "page index bounds"
    (Invalid_argument "Sfs: page index out of extent") (fun () ->
      ignore (Sfs.read_page sf ~page_index:32))

let extents_no_overlap =
  QCheck.Test.make ~name:"sfs extents never overlap" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 1 64))
    (fun sizes ->
      let _, _, fs = mk_sfs () in
      let q = Qos.make ~period:(Time.ms 250) ~slice:(Time.us 100) () in
      let swaps =
        List.filter_map
          (fun pages ->
            match
              Sfs.open_swap fs
                ~name:(string_of_int pages)
                ~bytes:(pages * 8192) ~qos:q ()
            with
            | Ok s -> Some s
            | Error _ -> None)
          sizes
      in
      let ranges =
        List.map (fun s -> (Sfs.extent_start s, Sfs.extent_blocks s)) swaps
      in
      List.for_all
        (fun (s1, l1) ->
          List.length
            (List.filter (fun (s2, l2) -> s1 < s2 + l2 && s2 < s1 + l1) ranges)
          = 1)
        ranges)

let suite =
  [ ( "usbs.qos", [ Alcotest.test_case "validation" `Quick qos_validation ] );
    ( "usbs.io_channel",
      [ Alcotest.test_case "fifo" `Quick io_channel_fifo;
        Alcotest.test_case "backpressure" `Quick io_channel_backpressure ] );
    ( "usbs.usd",
      [ Alcotest.test_case "admission control" `Quick usd_admission_control;
        Alcotest.test_case "single client transactions" `Quick
          usd_single_client_txn;
        Alcotest.test_case "EDF honours 4:1 shares" `Slow usd_edf_shares;
        Alcotest.test_case "laxity bounded by l" `Quick usd_lax_charge_bounded;
        Alcotest.test_case "short-block problem without laxity" `Quick
          usd_short_block_problem;
        Alcotest.test_case "roll-over bounds overrun" `Slow usd_rollover_carry;
        Alcotest.test_case "slack events for x clients" `Quick usd_slack_events;
        Alcotest.test_case "period allocations traced" `Quick
          usd_allocation_trace;
        Alcotest.test_case "every event kind round-trips its trace" `Quick
          usd_trace_round_trip ] );
    ( "usbs.sfs",
      [ Alcotest.test_case "extent allocation" `Quick sfs_extent_allocation;
        Alcotest.test_case "space exhaustion" `Quick sfs_space_exhaustion;
        Alcotest.test_case "data path" `Quick sfs_data_path;
        qtest extents_no_overlap ] ) ]
