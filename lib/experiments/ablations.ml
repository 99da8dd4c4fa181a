open Engine
open Core
open Workload

(* --- A-laxity ------------------------------------------------------ *)

type laxity_result = {
  with_laxity : (string * float * int) list;
  without_laxity : (string * float * int) list;
}

(* Without laxity the apps may not even finish initialising, so compare
   gross paging rates (disk bytes moved per second) rather than
   steady-state progress. *)
let laxity_row (r : Paging_fig.result) ~duration =
  List.map
    (fun (a : Paging_fig.app_report) ->
      let pages = a.Paging_fig.page_ins + a.Paging_fig.page_outs in
      let mbit =
        float_of_int (pages * 8192) *. 8.0 /. Time.to_sec duration /. 1e6
      in
      (a.Paging_fig.app_name, mbit, a.Paging_fig.txns))
    r.Paging_fig.apps

let run_laxity ?(duration = Time.sec 120) () =
  let on = Paging_fig.run ~duration () in
  let off = Paging_fig.run ~duration ~laxity:0 () in
  { with_laxity = laxity_row on ~duration;
    without_laxity = laxity_row off ~duration }

let print_laxity r =
  Report.heading "Ablation A-laxity: the short-block problem";
  let rows =
    List.map2
      (fun (name, mbit_on, txn_on) (_, mbit_off, txn_off) ->
        [ name; Report.f2 mbit_on; string_of_int txn_on; Report.f2 mbit_off;
          string_of_int txn_off ])
      r.with_laxity r.without_laxity
  in
  Report.table
    ~header:
      [ "app"; "paging Mbit/s (l=10ms)"; "txns"; "paging Mbit/s (no laxity)";
        "txns" ]
    rows;
  print_newline ();
  print_endline
    "Without laxity, plain EDF marks a client with no pending transaction";
  print_endline
    "idle until its next allocation: paging clients (one outstanding";
  print_endline "request) collapse towards one transaction per period."

(* The value of l itself: sweep laxity for the Figure-7 workload. A few
   milliseconds suffice to cover the fault-to-next-submission gap;
   beyond that the extra allowance is never used (lax charges stop at
   the point work arrives), so throughput saturates. *)
type laxity_sweep_result = {
  points : (int * float) list;  (* (laxity ms, total paging Mbit/s) *)
}

let run_laxity_sweep ?(duration = Time.sec 120) () =
  let one l_ms =
    let r = Paging_fig.run ~duration ~laxity:(Time.ms l_ms) () in
    let total =
      List.fold_left
        (fun acc (a : Paging_fig.app_report) ->
          acc
          +. float_of_int ((a.Paging_fig.page_ins + a.Paging_fig.page_outs) * 8192)
             *. 8.0 /. Time.to_sec duration /. 1e6)
        0.0 r.Paging_fig.apps
    in
    (l_ms, total)
  in
  (* l = 0 degenerates to plain EDF (the short-block collapse); the
     fault-to-resubmission gap is sub-millisecond, so any positive
     allowance already covers it. *)
  { points = List.map one [ 0; 1; 2; 5; 10; 25 ] }

let print_laxity_sweep r =
  Report.heading "Ablation A-laxity (sweep): how much laxity is enough?";
  Report.table
    ~header:[ "laxity ms"; "total paging Mbit/s" ]
    (List.map
       (fun (l, mbit) -> [ string_of_int l; Report.f2 mbit ])
       r.points);
  print_newline ();
  print_endline
    "A few milliseconds cover the fault-to-resubmission gap; the paper's";
  print_endline
    "10ms is comfortably past the knee. Unused allowance costs nothing";
  print_endline "(lax charging stops the moment work arrives)."

(* --- A-rollover ----------------------------------------------------- *)

type rollover_result = {
  with_rollover_share : float;
  without_rollover_share : float;
  guaranteed_share : float;
}

(* Disk share actually consumed by a client, from the USD trace
   (transaction time plus charged lax time). *)
let share_of_client trace name ~duration =
  let busy = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Txn { client; dur; _ } when client = name ->
        busy := !busy + dur
      | Usbs.Usd.Lax { client; dur } when client = name -> busy := !busy + dur
      | Usbs.Usd.Slack { client; dur; _ } when client = name ->
        busy := !busy + dur
      | _ -> ())
    trace;
  float_of_int !busy /. float_of_int duration

let run_rollover_one ~rollover ~duration =
  let sys = Harness.fresh_system ~usd_rollover:rollover () in
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
  (match
     Paging_app.start sys ~name:"hog" ~mode:Paging_app.Paging_out ~qos ()
   with
  | Ok _ -> ()
  | Error e ->
    Harness.fail_verdict ~experiment:"ablations"
      ~context:[ ("ablation", "A-rollover"); ("app", "hog") ]
      e);
  (* A competitor so that exceeding the guarantee actually takes time
     away from someone. *)
  let fq = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  (match Fs_client.start sys ~name:"fs" ~qos:fq () with
  | Ok _ -> ()
  | Error e ->
    Harness.fail_verdict ~experiment:"ablations"
      ~context:[ ("ablation", "A-rollover"); ("app", "fs") ]
      e);
  System.run sys ~until:duration;
  share_of_client (Usbs.Usd.trace (System.usd sys)) "hog.swap" ~duration

let run_rollover ?(duration = Time.sec 120) () =
  { with_rollover_share = run_rollover_one ~rollover:true ~duration;
    without_rollover_share = run_rollover_one ~rollover:false ~duration;
    guaranteed_share = 0.1 }

let print_rollover r =
  Report.heading "Ablation A-rollover: accounting for transaction overrun";
  Report.table
    ~header:[ "accounting"; "achieved share"; "guaranteed" ]
    [ [ "roll-over (paper)";
        Printf.sprintf "%.1f%%" (r.with_rollover_share *. 100.0);
        Printf.sprintf "%.1f%%" (r.guaranteed_share *. 100.0) ];
      [ "no carry";
        Printf.sprintf "%.1f%%" (r.without_rollover_share *. 100.0);
        Printf.sprintf "%.1f%%" (r.guaranteed_share *. 100.0) ] ];
  print_newline ();
  print_endline
    "A client whose ~11ms transactions always overrun its remaining time";
  print_endline
    "deterministically exceeds its guarantee unless the overrun is carried";
  print_endline "into the next allocation (negative remaining time)."

(* --- A-pt ----------------------------------------------------------- *)

type pt_result = {
  linear_dirty_us : float;
  guarded_dirty_us : float;
  linear_trap_us : float;
  guarded_trap_us : float;
  dirty_ratio : float;
}

let run_pt () =
  let rows pt = Table1.run ~page_table:pt () in
  let find rows name =
    (List.find (fun (r : Table1.row) -> r.Table1.bench = name) rows)
      .Table1.nemesis_us
  in
  let lin = rows `Linear and gua = rows `Guarded in
  let linear_dirty_us = find lin "dirty" in
  let guarded_dirty_us = find gua "dirty" in
  { linear_dirty_us;
    guarded_dirty_us;
    linear_trap_us = find lin "trap";
    guarded_trap_us = find gua "trap";
    dirty_ratio = guarded_dirty_us /. linear_dirty_us }

let print_pt r =
  Report.heading "Ablation A-pt: linear vs guarded page tables";
  Report.table
    ~header:[ "bench"; "linear us"; "guarded us"; "ratio" ]
    [ [ "dirty"; Report.f2 r.linear_dirty_us; Report.f2 r.guarded_dirty_us;
        Report.f2 r.dirty_ratio ];
      [ "trap"; Report.f2 r.linear_trap_us; Report.f2 r.guarded_trap_us;
        Report.f2 (r.guarded_trap_us /. r.linear_trap_us) ] ];
  print_newline ();
  print_endline
    "Paper: the earlier guarded-page-table implementation was about three";
  print_endline "times slower on the dirty micro-benchmark."

(* --- A-slack -------------------------------------------------------- *)

type slack_result = {
  extra_client_mbit : float;
  extra_client_share : float;
  victim_mbit_alone : float;
  victim_mbit_with_extra : float;
}

let run_slack ?(duration = Time.sec 120) () =
  let run_apps specs =
    let sys = Harness.fresh_system () in
    let apps =
      List.map
        (fun (name, slice_ms, extra) ->
          let qos =
            Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms slice_ms)
              ~extra ()
          in
          match
            Paging_app.start sys ~name ~mode:Paging_app.Paging_in ~qos ()
          with
          | Ok a -> (name, a)
          | Error e ->
            Harness.fail_verdict ~experiment:"ablations"
              ~context:[ ("ablation", "A-slack"); ("app", name) ]
              (name ^ ": " ^ e))
        specs
    in
    System.run sys ~until:duration;
    let trace = Usbs.Usd.trace (System.usd sys) in
    List.map
      (fun (name, a) ->
        ( name,
          Paging_app.sustained_mbit a,
          share_of_client trace (name ^ ".swap") ~duration ))
      apps
  in
  let alone = run_apps [ ("victim", 100, false) ] in
  let both = run_apps [ ("extra", 25, true); ("victim", 100, false) ] in
  let get l n = List.find (fun (name, _, _) -> name = n) l in
  let _, victim_alone, _ = get alone "victim" in
  let _, victim_with, _ = get both "victim" in
  let _, extra_mbit, extra_share = get both "extra" in
  { extra_client_mbit = extra_mbit;
    extra_client_share = extra_share;
    victim_mbit_alone = victim_alone;
    victim_mbit_with_extra = victim_with }

let print_slack r =
  Report.heading "Ablation A-slack: x-flag slack redistribution";
  Report.table
    ~header:[ "client"; "guarantee"; "Mbit/s"; "achieved share" ]
    [ [ "extra (x=true)"; "10%"; Report.f2 r.extra_client_mbit;
        Printf.sprintf "%.1f%%" (r.extra_client_share *. 100.0) ];
      [ "victim alone"; "40%"; Report.f2 r.victim_mbit_alone; "-" ];
      [ "victim + extra"; "40%"; Report.f2 r.victim_mbit_with_extra; "-" ] ];
  print_newline ();
  print_endline
    "A slack-eligible client soaks up otherwise-idle disk time well beyond";
  print_endline
    "its guarantee without disturbing the guarantees of others (the paper";
  print_endline "sets x=False throughout its runs; this is the extension).";
  print_newline ();
  Printf.printf "victim slowdown from extra client: %.1f%%\n"
    ((r.victim_mbit_alone -. r.victim_mbit_with_extra)
     /. r.victim_mbit_alone *. 100.0)

(* --- A-stream ------------------------------------------------------- *)

type stream_result = {
  rates : (int * float * int) list;
      (* (readahead, sustained Mbit/s, disk txns) for a single
         paging-in client with a fixed 10% guarantee *)
}

(* The paper's future-work "stream-paging" extension: read-ahead turns
   runs of page-ins into single larger transactions, so the same disk
   guarantee moves more data. *)
let run_stream ?(duration = Time.sec 170) () =
  let one readahead =
    let sys = Harness.fresh_system () in
    let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 25) () in
    (* fifo+raN, or plain fifo for the baseline row *)
    let policy =
      if readahead = 0 then Policy.Spec.default
      else
        { Policy.Spec.default with
          prefetch = Policy.Prefetch.Stream readahead }
    in
    let app =
      match
        Paging_app.start sys ~name:"app" ~mode:Paging_app.Paging_in ~qos
          ~phys_frames:(2 + (2 * readahead)) ~policy ()
      with
      | Ok a -> a
      | Error e ->
        Harness.fail_verdict ~experiment:"ablations"
          ~context:
            [ ("ablation", "A-stream"); ("readahead", string_of_int readahead) ]
          e
    in
    System.run sys ~until:duration;
    let txns = ref 0 in
    Trace.iter
      (fun _ ev -> match ev with Usbs.Usd.Txn _ -> incr txns | _ -> ())
      (Usbs.Usd.trace (System.usd sys));
    (readahead, Paging_app.sustained_mbit app, !txns)
  in
  { rates = List.map one [ 0; 2; 4; 8 ] }

let print_stream r =
  Report.heading
    "Extension A-stream: stream paging (read-ahead) under a fixed guarantee";
  Report.table
    ~header:[ "readahead"; "Mbit/s (10% disk)"; "disk txns" ]
    (List.map
       (fun (ra, mbit, txns) ->
         [ string_of_int ra; Report.f2 mbit; string_of_int txns ])
       r.rates);
  print_newline ();
  print_endline
    "Reading several consecutive swapped pages in one transaction amortises";
  print_endline
    "per-transaction overhead, so the same disk guarantee yields more";
  print_endline
    "progress — the paper's proposed stream-paging improvement, measured.";
  print_endline
    "(The client needs a few extra frames to hold the read-ahead.)"

(* --- A-revoke ------------------------------------------------------- *)

type revoke_result = {
  transparent_count : int;
  intrusive_count : int;
  intrusive_latency_ms : float;
  uncooperative_killed : bool;
  killed_requester_satisfied : bool;
}

(* A hoarder domain with a small guarantee and a large optimistic
   quota; [mapped] decides whether its frames end up mapped and dirty
   (forcing intrusive revocation with disk cleaning) or sit unused in
   the driver pool (transparent revocation). *)
let make_hoarder sys ~name ~mapped ~pages =
  match
    System.add_domain sys ~name ~guarantee:2 ~optimistic:pages ()
  with
  | Error e ->
    Harness.fail_verdict ~experiment:"ablations"
      ~context:[ ("ablation", "A-revoke"); ("domain", name) ]
      (System.error_message e)
  | Ok d ->
    (match System.alloc_stretch d ~bytes:(pages * Hw.Addr.page_size) () with
    | Error e ->
      Harness.fail_verdict ~experiment:"ablations"
        ~context:[ ("ablation", "A-revoke"); ("stage", "alloc_stretch") ]
        e
    | Ok stretch ->
      if mapped then begin
        (* Paged backing: revoked pages are dirty and must be cleaned
           to the USBS first, which is why the protocol's deadline is
           generous. *)
        let qos =
          Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
        in
        Harness.run_in_sim sys (fun () ->
            (match
               System.bind_paged d ~swap_bytes:(2 * pages * Hw.Addr.page_size)
                 ~qos stretch ()
             with
            | Ok _ -> ()
            | Error e ->
              Harness.fail_verdict ~experiment:"ablations"
                ~context:[ ("ablation", "A-revoke"); ("stage", "bind_paged") ]
                (System.error_message e));
            for i = 0 to pages - 1 do
              Domains.access d.System.dom (Stretch.page_base stretch i) `Write
            done)
      end
      else begin
        match System.bind_physical d ~prealloc:pages stretch with
        | Ok _ -> ()
        | Error e ->
          Harness.fail_verdict ~experiment:"ablations"
            ~context:[ ("ablation", "A-revoke"); ("stage", "bind_physical") ]
            (System.error_message e)
      end;
      d)

let run_revoke () =
  (* 1 MB of main memory = 128 frames: small enough to contend. *)
  let phase ~mapped ~sabotage =
    let sys = Harness.fresh_system ~main_memory_mb:1 () in
    let hoarder = make_hoarder sys ~name:"hoarder" ~mapped ~pages:100 in
    if sabotage then
      (* An uncooperative domain: ignores revocation notifications. *)
      Frames.set_revocation_handler hoarder.System.frames_client
        (fun ~k:_ ~deadline:_ -> ());
    let requester =
      match System.add_domain sys ~name:"requester" ~guarantee:30 ~optimistic:0 () with
      | Ok d -> d
      | Error e ->
        Harness.fail_verdict ~experiment:"ablations"
          ~context:[ ("ablation", "A-revoke"); ("domain", "requester") ]
          (System.error_message e)
    in
    let sim = System.sim sys in
    let got, latency =
      Harness.run_in_sim sys (fun () ->
          let t0 = Sim.now sim in
          let got = ref 0 in
          for _ = 1 to 30 do
            match
              Frames.alloc (System.frames sys) requester.System.frames_client
            with
            | Some _ -> incr got
            | None -> ()
          done;
          (!got, Time.to_ms (Time.diff (Sim.now sim) t0)))
    in
    (sys, hoarder, got, latency)
  in
  let sys1, _, got1, _ = phase ~mapped:false ~sabotage:false in
  let sys2, _, got2, lat2 = phase ~mapped:true ~sabotage:false in
  let _sys3, h3, got3, _ = phase ~mapped:true ~sabotage:true in
  assert (got1 = 30 && got2 = 30);
  { transparent_count = Frames.transparent_revocations (System.frames sys1);
    intrusive_count = Frames.revocations (System.frames sys2);
    intrusive_latency_ms = lat2;
    uncooperative_killed = not (Domains.alive h3.System.dom);
    killed_requester_satisfied = got3 = 30 }

let print_revoke r =
  Report.heading "Ablation A-revoke: the revocation protocol";
  Report.table
    ~header:[ "scenario"; "outcome" ]
    [ [ "hoarder frames unused";
        Printf.sprintf "transparent revocations: %d" r.transparent_count ];
      [ "hoarder frames mapped";
        Printf.sprintf
          "intrusive revocations: %d (alloc burst incl. cleaning: %.2fms)"
          r.intrusive_count r.intrusive_latency_ms ];
      [ "hoarder ignores notification";
        Printf.sprintf "killed=%b, requester satisfied=%b"
          r.uncooperative_killed r.killed_requester_satisfied ] ];
  print_newline ();
  print_endline
    "Guaranteed allocations always succeed: transparently when the victim's";
  print_endline
    "stack top is unused, via notification (deadline T=100ms) when frames";
  print_endline "must be cleaned, and by killing domains that flunk the protocol."
