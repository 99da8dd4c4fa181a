(* Tests for the user-safe network link. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk () =
  let sim = Sim.create () in
  (sim, Usnet.Link.create sim)

let transmit_exn link c ~bytes =
  match Usnet.Link.transmit link c ~bytes with
  | Ok () -> ()
  | Error `Retired -> failwith "transmit_exn: client retired"

let send_exn link c ~bytes =
  match Usnet.Link.send link c ~bytes with
  | Ok iv -> iv
  | Error `Retired -> failwith "send_exn: client retired"

let admit_exn link ~name ~period ~slice ?extra ?laxity () =
  match Usnet.Link.admit link ~name ~period ~slice ?extra ?laxity () with
  | Ok c -> c
  | Error e -> failwith (Usnet.Link.admit_error_message e)

let tx_time_model () =
  let p = Usnet.Net_params.fast_ethernet in
  (* 1514 bytes at 100 Mbit/s = 121.1 us on the wire + 8 us overhead. *)
  let t = Usnet.Net_params.tx_time p ~bytes:1514 in
  checkb "about 129us" true (t > Time.us 128 && t < Time.us 131);
  Alcotest.check_raises "oversized packet"
    (Invalid_argument "Net_params.tx_time: bad size 2000") (fun () ->
      ignore (Usnet.Net_params.tx_time p ~bytes:2000))

let link_admission () =
  let _, link = mk () in
  ignore (admit_exn link ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 6) ());
  ignore (admit_exn link ~name:"b" ~period:(Time.ms 10) ~slice:(Time.ms 4) ());
  match
    Usnet.Link.admit link ~name:"c" ~period:(Time.ms 10) ~slice:(Time.ms 1) ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overbooked link admission accepted"

let link_single_sender () =
  let sim, link = mk () in
  let c = admit_exn link ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 5) () in
  let sent = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 20 do
           transmit_exn link c ~bytes:1000;
           incr sent
         done));
  Sim.run ~until:(Time.sec 1) sim;
  check "all packets out" 20 !sent;
  check "counted" 20 (Usnet.Link.packets_sent c);
  check "bytes" 20_000 (Usnet.Link.bytes_sent c);
  checkb "time charged" true (Usnet.Link.used_time c > 0)

let link_shares_follow_guarantees () =
  let sim, link = mk () in
  let a = admit_exn link ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 4) () in
  let b = admit_exn link ~name:"b" ~period:(Time.ms 10) ~slice:(Time.ms 2) () in
  let flood c () =
    let rec loop () =
      ignore (send_exn link c ~bytes:1514);
      Proc.yield ();
      loop ()
    in
    loop ()
  in
  ignore (Proc.spawn sim (flood a));
  ignore (Proc.spawn sim (flood b));
  Sim.run ~until:(Time.sec 5) sim;
  let ratio =
    float_of_int (Usnet.Link.bytes_sent a)
    /. float_of_int (Usnet.Link.bytes_sent b)
  in
  checkb "2:1 within 10%" true (ratio > 1.8 && ratio < 2.2)

let link_slack_for_x_clients () =
  let sim, link = mk () in
  let a =
    admit_exn link ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 1)
      ~extra:true ()
  in
  let flood () =
    let rec loop () =
      ignore (send_exn link a ~bytes:1514);
      Proc.yield ();
      loop ()
    in
    loop ()
  in
  ignore (Proc.spawn sim flood);
  Sim.run ~until:(Time.sec 2) sim;
  (* On an otherwise idle link, a 10% x-client can exceed its slice. *)
  let share =
    float_of_int (Usnet.Link.used_time a) /. float_of_int (Time.sec 2)
  in
  checkb "well beyond its 10%" true (share > 0.5);
  let slack = ref 0 in
  Trace.iter
    (fun _ ev -> match ev with Usnet.Link.Slack_tx _ -> incr slack | _ -> ())
    (Usnet.Link.trace link);
  checkb "slack transmissions traced" true (!slack > 0)

let link_latency_under_guarantee () =
  let sim, link = mk () in
  (* A periodic 20%-guaranteed sender on a contended link never waits
     more than roughly a period for its packet. *)
  let cm = admit_exn link ~name:"cm" ~period:(Time.ms 5) ~slice:(Time.ms 1) () in
  let bulk =
    admit_exn link ~name:"bulk" ~period:(Time.ms 100) ~slice:(Time.ms 79) ()
  in
  ignore
    (Proc.spawn sim (fun () ->
         let rec loop () =
           ignore (send_exn link bulk ~bytes:1514);
           Proc.yield ();
           loop ()
         in
         loop ()));
  let worst = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 200 do
           let t0 = Sim.now sim in
           transmit_exn link cm ~bytes:512;
           let dt = Time.diff (Sim.now sim) t0 in
           if dt > !worst then worst := dt;
           Proc.sleep (Time.ms 4)
         done));
  Sim.run ~until:(Time.sec 5) sim;
  checkb "cm latency bounded by ~a period" true (!worst < Time.ms 8)

(* The link side of the one rule the resources keep apart in the shared
   Atropos loop: an empty link client without laxity leaves the
   runnable queue instead of being picked and idled, so a sender that
   thinks between packets is served again as soon as its next packet
   arrives. (On the USD the same client forfeits its period after the
   first request: the short-block problem.) *)
let link_think_time_without_laxity () =
  let sim, link = mk () in
  let c =
    admit_exn link ~name:"bulk" ~period:(Time.ms 20) ~slice:(Time.ms 5)
      ~laxity:0 ()
  in
  let finished = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 20 do
           transmit_exn link c ~bytes:1514;
           Proc.sleep (Time.us 100)
         done;
         finished := Sim.now sim));
  Sim.run ~until:(Time.ms 200) sim;
  check "all 20 packets sent" 20 (Usnet.Link.packets_sent c);
  checkb "within the first period" true
    (!finished > Time.zero && !finished < Time.ms 20);
  check "no lax time" 0 (Usnet.Link.lax_time c)

(* Every event kind recorded as int rows and read back from a trace
   that spans many chunks. Each field has a witness outside the trace:
   the packets each client sent, in order, their wire time, and the
   service and lax time the link charged it. *)
let link_trace_round_trip () =
  let sim, link = mk () in
  let params = Usnet.Link.params link in
  (* a bulk sender with laxity that pauses between bursts, and an
     x-flagged flood that lives on slack *)
  let bulk =
    admit_exn link ~name:"bulk" ~period:(Time.ms 10) ~slice:(Time.ms 2)
      ~laxity:(Time.us 300) ()
  in
  let flood =
    admit_exn link ~name:"flood" ~period:(Time.ms 20) ~slice:(Time.ms 1)
      ~extra:true ()
  in
  let sent = Hashtbl.create 2 in
  let run name c size think =
    Hashtbl.replace sent name [];
    ignore
      (Proc.spawn sim (fun () ->
           let rec loop i =
             let bytes = size i in
             transmit_exn link c ~bytes;
             Hashtbl.replace sent name (bytes :: Hashtbl.find sent name);
             Proc.sleep (think i);
             loop (i + 1)
           in
           loop 0))
  in
  run "bulk" bulk
    (fun i -> 64 + (i * 97 mod 1400))
    (fun i -> if i mod 4 = 3 then Time.us (100 + (i mod 500)) else 0);
  run "flood" flood (fun i -> 1514 - (i mod 300)) (fun _ -> 0);
  Sim.run ~until:(Time.sec 2) sim;
  let tr = Usnet.Link.trace link in
  let rows = Trace.to_list tr in
  checkb "trace spans many chunks" true (Trace.length tr > 3_000);
  check "length agrees" (Trace.length tr) (List.length rows);
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun (_, ev) ->
      Hashtbl.replace kinds
        (match ev with
        | Usnet.Link.Tx _ -> "tx"
        | Usnet.Link.Alloc _ -> "alloc"
        | Usnet.Link.Slack_tx _ -> "slack"
        | Usnet.Link.Lax _ -> "lax")
        ())
    rows;
  List.iter
    (fun k -> checkb ("some " ^ k) true (Hashtbl.mem kinds k))
    [ "tx"; "alloc"; "slack"; "lax" ];
  let check_client name c ~period =
    let mine =
      List.filter
        (fun (_, ev) ->
          match ev with
          | Usnet.Link.Tx { client; _ } | Usnet.Link.Alloc { client }
          | Usnet.Link.Slack_tx { client; _ } | Usnet.Link.Lax { client; _ } ->
            client = name)
        rows
    in
    let packets =
      Array.of_list @@ List.filter_map
        (fun (_, ev) ->
          match ev with
          | Usnet.Link.Tx { bytes; dur; _ } | Usnet.Link.Slack_tx { bytes; dur; _ }
            ->
            Some (bytes, dur)
          | Usnet.Link.Alloc _ | Usnet.Link.Lax _ -> None)
        mine
    in
    let lax, allocs =
      List.fold_left
        (fun (lax, allocs) (_, ev) ->
          match ev with
          | Usnet.Link.Lax { dur; _ } -> (lax + dur, allocs)
          | Usnet.Link.Alloc _ -> (lax, allocs + 1)
          | _ -> (lax, allocs))
        (0, 0) mine
    in
    let sent = List.rev (Hashtbl.find sent name) in
    (* the last packet may have left the wire as the run stopped *)
    let n = List.length sent in
    checkb (name ^ ": one row per packet") true
      (Array.length packets = n || Array.length packets = n + 1);
    List.iteri
      (fun i bytes ->
        let bytes', dur = packets.(i) in
        check (name ^ ": bytes") bytes bytes';
        check (name ^ ": wire time") (Usnet.Net_params.tx_time params ~bytes)
          dur)
      sent;
    let busy = Array.fold_left (fun acc (_, d) -> acc + d) 0 packets in
    check (name ^ ": service and lax time charged")
      (Usnet.Link.used_time c) (busy + lax);
    check (name ^ ": lax time charged") (Usnet.Link.lax_time c) lax;
    checkb (name ^ ": allocations") true
      (abs (allocs - (Time.sec 2 / period)) <= 1)
  in
  check_client "bulk" bulk ~period:(Time.ms 10);
  check_client "flood" flood ~period:(Time.ms 20)

let netiso_shares_shape () =
  let r = Experiments.Net_iso.run_shares ~duration:(Time.sec 10) () in
  match r.Experiments.Net_iso.senders with
  | [ (_, _, one); (_, _, two); (_, _, four) ] ->
    Alcotest.(check (float 1e-9)) "base" 1.0 one;
    checkb "2x" true (two > 1.9 && two < 2.1);
    checkb "4x" true (four > 3.8 && four < 4.2)
  | _ -> Alcotest.fail "expected three senders"

let netiso_crosstalk_direction () =
  let r =
    Experiments.Net_iso.run_kernel_crosstalk ~duration:(Time.sec 40) ()
  in
  checkb "shared event loop much worse" true
    (r.Experiments.Net_iso.shared_p95_ms
     > 10.0 *. r.Experiments.Net_iso.nemesis_p95_ms);
  checkb "nemesis latency sub-ms" true
    (r.Experiments.Net_iso.nemesis_p95_ms < 1.0)

let suite =
  [ ( "usnet.params",
      [ Alcotest.test_case "tx time model" `Quick tx_time_model ] );
    ( "usnet.link",
      [ Alcotest.test_case "admission control" `Quick link_admission;
        Alcotest.test_case "single sender" `Quick link_single_sender;
        Alcotest.test_case "2:1 shares" `Quick link_shares_follow_guarantees;
        Alcotest.test_case "slack for x clients" `Quick link_slack_for_x_clients;
        Alcotest.test_case "CM latency bounded" `Quick
          link_latency_under_guarantee;
        Alcotest.test_case "think time without laxity keeps the link" `Quick
          link_think_time_without_laxity;
        Alcotest.test_case "every event kind round-trips its trace" `Quick
          link_trace_round_trip ] );
    ( "usnet.experiments",
      [ Alcotest.test_case "1:2:4 link shares" `Slow netiso_shares_shape;
        Alcotest.test_case "kernel crosstalk direction" `Slow
          netiso_crosstalk_direction ] ) ]
