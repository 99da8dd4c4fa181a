(* Tests for the observability subsystem: the metrics registry, the
   bounded ring buffer, span nesting, the QoS-firewall auditor, and an
   end-to-end check that an instrumented paging run produces fault
   telemetry without audit false-positives. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Metrics --- *)

let metrics_counters_and_gauges () =
  Obs.Metrics.reset ();
  Obs.Metrics.inc "requests";
  Obs.Metrics.inc "requests";
  Obs.Metrics.add ~label:"domA" "requests" 5;
  check "unlabelled counter" 2 (Obs.Metrics.counter_value "requests");
  check "labelled counter" 5 (Obs.Metrics.counter_value ~label:"domA" "requests");
  check "missing counter is 0" 0 (Obs.Metrics.counter_value "nonesuch");
  Obs.Metrics.set_gauge "depth" 3.5;
  Alcotest.(check (option (float 0.0))) "gauge" (Some 3.5)
    (Obs.Metrics.gauge_value "depth");
  Alcotest.(check (list string)) "labels_of" [ ""; "domA" ]
    (Obs.Metrics.labels_of "requests");
  Obs.Metrics.reset ();
  check "reset clears" 0 (Obs.Metrics.counter_value "requests")

let metrics_histogram () =
  Obs.Metrics.reset ();
  let bounds = [| 1.0; 10.0; 100.0 |] in
  List.iter
    (Obs.Metrics.observe ~label:"d" ~bounds "lat")
    [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  (match Obs.Metrics.hist_view ~label:"d" "lat" with
  | None -> Alcotest.fail "histogram not registered"
  | Some v ->
    check "count" 5 v.Obs.Metrics.hv_count;
    Alcotest.(check (float 0.0)) "min" 0.5 v.Obs.Metrics.hv_min;
    Alcotest.(check (float 0.0)) "max" 5000.0 v.Obs.Metrics.hv_max;
    (* buckets: <=1: 1, <=10: 2, <=100: 1, overflow: 1 *)
    let counts = Array.map snd v.Obs.Metrics.hv_buckets in
    Alcotest.(check (array int)) "bucket counts" [| 1; 2; 1; 1 |] counts;
    Alcotest.(check (float 0.0)) "overflow bound is inf" infinity
      (fst v.Obs.Metrics.hv_buckets.(3));
    (* Quantile upper estimates: the 1st of 5 samples sits in bucket
       <=1, the 3rd in <=10, the last in the overflow (reported as the
       observed max). *)
    Alcotest.(check (float 0.0)) "q0.2" 1.0 (Obs.Metrics.hist_quantile v 0.2);
    Alcotest.(check (float 0.0)) "q0.6" 10.0 (Obs.Metrics.hist_quantile v 0.6);
    Alcotest.(check (float 0.0)) "q1" 5000.0 (Obs.Metrics.hist_quantile v 1.0));
  (* Exports don't raise and mention the metric. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  checkb "json mentions lat" true
    (contains (Json.to_string (Obs.Metrics.to_json ())) "lat");
  checkb "csv mentions lat" true (contains (Obs.Metrics.to_csv ()) "lat")

(* --- Ring --- *)

let ring_wraparound () =
  let r = Obs.Ring.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Ring.record r (Time.us i) i
  done;
  check "length capped" 4 (Obs.Ring.length r);
  check "capacity" 4 (Obs.Ring.capacity r);
  check "dropped" 6 (Obs.Ring.dropped r);
  check "total" 10 (Obs.Ring.total r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map snd (Obs.Ring.to_list r));
  Obs.Ring.clear r;
  check "clear empties" 0 (Obs.Ring.length r);
  check "clear resets dropped" 0 (Obs.Ring.dropped r)

(* --- Span --- *)

let span_nesting () =
  Obs.Span.reset ();
  let root = Obs.Span.start ~now:(Time.us 0) ~label:"d" "fault" in
  let child = Obs.Span.start ~now:(Time.us 10) ~parent:root "activation" in
  let grandchild = Obs.Span.start ~now:(Time.us 20) ~parent:child "usd.read" in
  Obs.Span.finish ~now:(Time.us 30) grandchild;
  Obs.Span.finish ~now:(Time.us 40) child;
  Obs.Span.finish ~now:(Time.us 50) root;
  Obs.Span.finish ~now:(Time.us 99) root;
  (* idempotent *)
  let recs = Obs.Span.finished () in
  check "three finished spans" 3 (List.length recs);
  let by_name n = List.find (fun r -> r.Obs.Span.name = n) recs in
  let root_r = by_name "fault" in
  let child_r = by_name "activation" in
  let grand_r = by_name "usd.read" in
  Alcotest.(check (option int)) "root has no parent" None root_r.Obs.Span.parent;
  Alcotest.(check (option int)) "child links root" (Some root_r.Obs.Span.id)
    child_r.Obs.Span.parent;
  Alcotest.(check (option int)) "grandchild links child"
    (Some child_r.Obs.Span.id) grand_r.Obs.Span.parent;
  checkb "durations positive" true
    (List.for_all (fun r -> r.Obs.Span.t1 > r.Obs.Span.t0) recs);
  (* CSV has a header plus one row per span. *)
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Span.to_csv ()))
  in
  check "csv rows" 4 (List.length lines);
  Obs.Span.reset ();
  check "reset clears" 0 (List.length (Obs.Span.finished ()))

(* --- Qos_audit --- *)

let audit_cpu_undersupply () =
  Obs.reset ();
  let entitled = Time.ms 10 in
  let feed ~got ~backlogged n =
    for i = 1 to n do
      Obs.Qos_audit.boundary Cpu ~now:(Time.ms (10 * i)) ~name:"victim"
        ~entitled ~got ~backlogged
    done
  in
  (* Underserved but idle: never a violation. *)
  feed ~got:0 ~backlogged:false 5;
  checkb "idle client never flags" true (Obs.Qos_audit.ok ());
  (* A single underserved period is within the QoS granularity. *)
  feed ~got:(Time.ms 2) ~backlogged:true 1;
  feed ~got:entitled ~backlogged:true 1;
  checkb "one bad period tolerated" true (Obs.Qos_audit.ok ());
  (* Small shortfall within tolerance: fine. *)
  feed ~got:(Time.ms 10 - Time.us 100) ~backlogged:true 5;
  checkb "tolerance absorbs jitter" true (Obs.Qos_audit.ok ());
  (* Two consecutive starved periods while backlogged: flagged. *)
  feed ~got:(Time.ms 2) ~backlogged:true 2;
  checkb "undersupply flagged" false (Obs.Qos_audit.ok ());
  Alcotest.(check (list (pair string int))) "by_class"
    [ ("cpu.undersupply", 1) ]
    (Obs.Qos_audit.by_class ());
  check "violation counter bumped" 1
    (Obs.Metrics.counter_value ~label:"cpu.undersupply" "qos.violations");
  (match Obs.Qos_audit.events () with
  | [ (_, Obs.Qos_audit.Cpu_undersupply { dom; periods; _ }) ] ->
    Alcotest.(check string) "victim named" "victim" dom;
    check "streak length" 2 periods
  | _ -> Alcotest.fail "expected one Cpu_undersupply event");
  Obs.reset ()

let audit_usd_undersupply () =
  Obs.reset ();
  for i = 1 to 3 do
    Obs.Qos_audit.boundary Usd ~now:(Time.ms (250 * i)) ~name:"swap"
      ~entitled:(Time.ms 50) ~got:(Time.ms 1) ~backlogged:true
  done;
  checkb "usd undersupply flagged" false (Obs.Qos_audit.ok ());
  (* Patience 2: periods 1+2 flag once and reset; period 3 starts a new
     streak that is still within patience. *)
  Alcotest.(check (list (pair string int))) "class" [ ("usd.undersupply", 1) ]
    (Obs.Qos_audit.by_class ());
  Obs.reset ()

let audit_mem_and_revocation () =
  Obs.reset ();
  (* Within capacity: fine. *)
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:1 ~guarantee:60 ~capacity:100;
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:2 ~guarantee:40 ~capacity:100;
  checkb "exactly full is fine" true (Obs.Qos_audit.ok ());
  (* Overcommit Σg > capacity: flagged. *)
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:3 ~guarantee:10 ~capacity:100;
  checkb "overcommit flagged" false (Obs.Qos_audit.ok ());
  (* Releasing a contract brings Σg back down; a new grant is clean. *)
  Obs.Qos_audit.mem_release ~dom:3;
  Obs.Qos_audit.mem_release ~dom:2;
  Obs.Qos_audit.mem_grant ~now:Time.zero ~dom:4 ~guarantee:30 ~capacity:100;
  Alcotest.(check (list (pair string int))) "only the one overcommit"
    [ ("mem.overcommit", 1) ]
    (Obs.Qos_audit.by_class ());
  (* Revocation protocol outcomes. *)
  Obs.Qos_audit.revocation_done ~now:(Time.ms 50) ~dom:1
    ~deadline:(Time.ms 100) ~ok:true;
  check "clean revocation not flagged" 1 (Obs.Qos_audit.total ());
  Obs.Qos_audit.revocation_done ~now:(Time.ms 150) ~dom:1
    ~deadline:(Time.ms 100) ~ok:false;
  Obs.Qos_audit.guarantee_starved ~now:(Time.ms 200) ~dom:2;
  Alcotest.(check (list (pair string int))) "all classes"
    [ ("guarantee.starved", 1); ("mem.overcommit", 1);
      ("revocation.overdue", 1) ]
    (Obs.Qos_audit.by_class ());
  let s = Obs.Qos_audit.summarize () in
  check "summary violations" 3 s.Obs.Qos_audit.violations;
  check "recent retained" 3 (List.length s.Obs.Qos_audit.recent);
  Obs.reset ();
  checkb "reset forgets" true (Obs.Qos_audit.ok ())

(* --- End to end: an instrumented paging run --- *)

let instrumented_paging_run () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
      let d =
        match
          System.add_domain sys ~name:"app" ~guarantee:8 ~optimistic:0 ()
        with
        | Ok d -> d
        | Error e -> failwith (System.error_message e)
      in
      let s =
        match System.alloc_stretch d ~bytes:(32 * Addr.page_size) () with
        | Ok s -> s
        | Error e -> failwith e
      in
      let finished = ref false in
      ignore
        (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
             let qos =
               Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
             in
             (match
                System.bind_paged d ~initial_frames:4
                  ~swap_bytes:(64 * Addr.page_size) ~qos s ()
              with
             | Ok _ -> ()
             | Error e -> failwith (System.error_message e));
             (* Two sweeps: populate (demand-zero), then revisit so the
                early pages must come back from swap. *)
             for i = 0 to 31 do
               Domains.access d.System.dom (Stretch.page_base s i) `Write
             done;
             for i = 0 to 31 do
               Domains.access d.System.dom (Stretch.page_base s i) `Read
             done;
             finished := true));
      System.run sys ~until:(Time.sec 120);
      checkb "workload finished" true !finished;
      (* Fault telemetry exists for the domain, under its name. *)
      checkb "fault counter" true
        (Obs.Metrics.counter_value ~label:"app" "fault.count" > 0);
      (match Obs.Metrics.hist_view ~label:"app" "fault.latency_us" with
      | None -> Alcotest.fail "no fault-latency histogram"
      | Some v ->
        checkb "histogram populated" true (v.Obs.Metrics.hv_count > 0);
        checkb "latencies positive" true (v.Obs.Metrics.hv_mean > 0.0));
      (* The TLB saw this address space, and spans decompose faults. *)
      checkb "tlb counters" true
        (Obs.Metrics.labels_of "tlb.misses" <> []);
      let spans = Obs.Span.finished () in
      let has n = List.exists (fun r -> r.Obs.Span.name = n) spans in
      checkb "fault spans" true (has "fault");
      checkb "activation spans" true (has "activation");
      checkb "dispatch spans" true (has "mm.dispatch");
      checkb "usd.read spans" true (has "usd.read");
      let fault_ids =
        List.filter_map
          (fun r ->
            if r.Obs.Span.name = "fault" then Some r.Obs.Span.id else None)
          spans
      in
      checkb "activations link to faults" true
        (List.exists
           (fun r ->
             r.Obs.Span.name = "activation"
             && match r.Obs.Span.parent with
                | Some p -> List.mem p fault_ids
                | None -> false)
           spans);
      (* The paper's claim, audited online: an unperturbed run has no
         QoS violations. *)
      checkb "audit clean" true (Obs.Qos_audit.ok ()))

let suite =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counters and gauges" `Quick
          metrics_counters_and_gauges;
        Alcotest.test_case "histograms" `Quick metrics_histogram ] );
    ( "obs.ring",
      [ Alcotest.test_case "wraparound" `Quick ring_wraparound ] );
    ( "obs.span",
      [ Alcotest.test_case "nesting" `Quick span_nesting ] );
    ( "obs.qos_audit",
      [ Alcotest.test_case "cpu undersupply" `Quick audit_cpu_undersupply;
        Alcotest.test_case "usd undersupply" `Quick audit_usd_undersupply;
        Alcotest.test_case "memory and revocation" `Quick
          audit_mem_and_revocation ] );
    ( "obs.integration",
      [ Alcotest.test_case "instrumented paging run" `Quick
          instrumented_paging_run ] ) ]
