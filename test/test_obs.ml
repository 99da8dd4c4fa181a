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
  let requests = Obs.Metrics.counter "requests" in
  Obs.Metrics.inc requests;
  Obs.Metrics.inc requests;
  Obs.Metrics.add (Obs.Metrics.counter ~label:"domA" "requests") 5;
  check "unlabelled counter" 2 (Obs.Metrics.counter_value "requests");
  check "labelled counter" 5 (Obs.Metrics.counter_value ~label:"domA" "requests");
  check "missing counter is 0" 0 (Obs.Metrics.counter_value "nonesuch");
  Obs.Metrics.set (Obs.Metrics.gauge "depth") 3;
  Alcotest.(check (option int)) "gauge" (Some 3)
    (Obs.Metrics.gauge_value "depth");
  Alcotest.(check (list string)) "labels_of" [ ""; "domA" ]
    (Obs.Metrics.labels_of "requests");
  Obs.Metrics.reset ();
  check "reset clears" 0 (Obs.Metrics.counter_value "requests")

let metrics_histogram () =
  Obs.Metrics.reset ();
  let lat = Obs.Metrics.histogram ~label:"d" "lat" in
  List.iter (Obs.Metrics.observe lat) [ 0.5; 5.0; 5.0; 50.0; 5e6 ];
  (match Obs.Metrics.hist_view ~label:"d" "lat" with
  | None -> Alcotest.fail "histogram not registered"
  | Some v ->
    check "count" 5 v.Obs.Metrics.hv_count;
    Alcotest.(check (float 0.0)) "min" 0.5 v.Obs.Metrics.hv_min;
    Alcotest.(check (float 0.0)) "max" 5e6 v.Obs.Metrics.hv_max;
    (* One bucket per bound of latency_bounds_us plus the overflow:
       <=1: 1, <=5: 2, <=50: 1, overflow (above 1 s): 1. *)
    let bounds = Obs.Metrics.latency_bounds_us in
    let n = Array.length bounds in
    let expected =
      Array.init (n + 1) (fun i ->
          if i = n then 1
          else match bounds.(i) with 1.0 -> 1 | 5.0 -> 2 | 50.0 -> 1 | _ -> 0)
    in
    Alcotest.(check (array int)) "bucket counts" expected
      (Array.map snd v.Obs.Metrics.hv_buckets);
    Alcotest.(check (array (float 0.0))) "bucket bounds"
      (Array.append bounds [| infinity |])
      (Array.map fst v.Obs.Metrics.hv_buckets);
    (* Quantile upper estimates: the 1st of 5 samples sits in bucket
       <=1, the 3rd in <=5, the last in the overflow (reported as the
       observed max). *)
    Alcotest.(check (float 0.0)) "q0.2" 1.0 (Obs.Metrics.hist_quantile v 0.2);
    Alcotest.(check (float 0.0)) "q0.6" 5.0 (Obs.Metrics.hist_quantile v 0.6);
    Alcotest.(check (float 0.0)) "q1" 5e6 (Obs.Metrics.hist_quantile v 1.0));
  (* Exports don't raise and mention the metric. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  checkb "json mentions lat" true
    (contains (Json.to_string (Obs.Metrics.to_json ())) "lat");
  checkb "csv mentions lat" true (contains (Obs.Metrics.to_csv ()) "lat")

(* Making a handle registers nothing; its first write does, and two
   handles for one name and label share the cell. *)
let metrics_registered_on_write () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~label:"a" "lazy.count" in
  let g = Obs.Metrics.gauge ~label:"a" "lazy.depth" in
  let h = Obs.Metrics.histogram ~label:"a" "lazy.lat" in
  checkb "snapshot empty" true (Obs.Metrics.snapshot () = []);
  Alcotest.(check (list string)) "no labels" [] (Obs.Metrics.labels_of "lazy.count");
  checkb "no histogram" true (Obs.Metrics.hist_view ~label:"a" "lazy.lat" = None);
  Alcotest.(check (option int)) "no gauge" None
    (Obs.Metrics.gauge_value ~label:"a" "lazy.depth");
  Obs.Metrics.inc c;
  Obs.Metrics.inc (Obs.Metrics.counter ~label:"a" "lazy.count");
  check "one cell for one name and label" 2
    (Obs.Metrics.counter_value ~label:"a" "lazy.count");
  Alcotest.(check (list string)) "labelled once" [ "a" ]
    (Obs.Metrics.labels_of "lazy.count");
  check "only the counter listed" 1 (List.length (Obs.Metrics.snapshot ()));
  Obs.Metrics.set g 7;
  Obs.Metrics.observe h 3.0;
  check "all three listed" 3 (List.length (Obs.Metrics.snapshot ()));
  (match Obs.Metrics.hist_view ~label:"a" "lazy.lat" with
  | Some v -> check "one sample" 1 v.Obs.Metrics.hv_count
  | None -> Alcotest.fail "histogram not registered by its write");
  (* A name is one kind: a gauge write to a counter's name is refused. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: \"lazy.count\" (label \"a\") is a counter, not a gauge")
    (fun () -> Obs.Metrics.set (Obs.Metrics.gauge ~label:"a" "lazy.count") 1);
  Obs.Metrics.reset ()

(* A handle made before a reset writes into the fresh registry. *)
let metrics_handle_survives_reset () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~label:"d" "kept.count" in
  let g = Obs.Metrics.gauge ~label:"d" "kept.depth" in
  let h = Obs.Metrics.histogram ~label:"d" "kept.lat" in
  Obs.Metrics.add c 5;
  Obs.Metrics.set g 9;
  Obs.Metrics.observe h 2.0;
  Obs.reset ();
  checkb "reset forgets" true (Obs.Metrics.snapshot () = []);
  Obs.Metrics.inc c;
  Obs.Metrics.set g 4;
  Obs.Metrics.observe h 20.0;
  check "counter starts afresh" 1
    (Obs.Metrics.counter_value ~label:"d" "kept.count");
  Alcotest.(check (option int)) "gauge rewritten" (Some 4)
    (Obs.Metrics.gauge_value ~label:"d" "kept.depth");
  (match Obs.Metrics.hist_view ~label:"d" "kept.lat" with
  | Some v ->
    check "histogram starts afresh" 1 v.Obs.Metrics.hv_count;
    Alcotest.(check (float 0.0)) "only the new sample" 20.0 v.Obs.Metrics.hv_min
  | None -> Alcotest.fail "histogram not registered after reset");
  Obs.reset ()

(* Words per write, measured like the engine's hand-offs: a counter or
   gauge write allocates nothing, a histogram sample only its boxed
   float, a span only its handle. *)
let write_allocation () =
  Obs.reset ();
  let words f = Test_engine.words_per ~warm:1_000 ~n:10_000 f in
  let c = Obs.Metrics.counter ~label:"d" "alloc.count" in
  let g = Obs.Metrics.gauge ~label:"d" "alloc.depth" in
  let h = Obs.Metrics.histogram ~label:"d" "alloc.lat" in
  Test_engine.check_words "counter inc" ~bound:0.
    (words (fun n ->
         for _ = 1 to n do
           Obs.Metrics.inc c
         done));
  Test_engine.check_words "gauge set" ~bound:0.
    (words (fun n ->
         for i = 1 to n do
           Obs.Metrics.set g i
         done));
  Test_engine.check_words "histogram sample" ~bound:2.
    (words (fun n ->
         for i = 1 to n do
           Obs.Metrics.observe h (float_of_int (i land 1023))
         done));
  Test_engine.check_words "span start and finish" ~bound:7.
    (words (fun n ->
         for i = 1 to n do
           Obs.Span.finish ~now:(i + 1)
             (Obs.Span.start ~now:i ~label:"d" ~parent:Obs.Span.none "op")
         done));
  Obs.reset ()

(* The USD and link cycles of the engine's allocation tests with Obs
   on: a transaction adds its histogram sample, a packet nothing. *)
let obs_on_cycle_allocation () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      Test_engine.check_words "USD transact, Obs on" ~bound:69.
        (Test_engine.usd_transact_words ());
      checkb "USD stream metrics written" true
        (Obs.Metrics.counter_value ~label:"c" "usd.txns" > 0);
      Test_engine.check_words "link transmit, Obs on" ~bound:48.
        (Test_engine.link_transmit_words ());
      checkb "link gauges written" true
        (Obs.Metrics.gauge_value ~label:"link.c" "link.tx_bytes" <> None))

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
  let root =
    Obs.Span.start ~now:(Time.us 0) ~label:"d" ~parent:Obs.Span.none "fault"
  in
  let child =
    Obs.Span.start ~now:(Time.us 10) ~label:"" ~parent:root "activation"
  in
  let grandchild =
    Obs.Span.start ~now:(Time.us 20) ~label:"" ~parent:child "usd.read"
  in
  Obs.Span.finish ~now:(Time.us 30) grandchild;
  Obs.Span.finish ~now:(Time.us 40) child;
  Obs.Span.finish ~now:(Time.us 50) root;
  Obs.Span.finish ~now:(Time.us 99) root;
  (* idempotent *)
  Obs.Span.finish ~now:(Time.us 99) Obs.Span.none;
  (* records nothing *)
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
  (* CSV has a header plus one row per span, in finish order. *)
  Alcotest.(check (list string)) "csv rows"
    [ "id,parent,name,label,start_ns,end_ns,duration_ns";
      "2,1,usd.read,,20000,30000,10000";
      "1,0,activation,,10000,40000,30000";
      "0,,fault,d,0,50000,50000" ]
    (String.split_on_char '\n' (String.trim (Obs.Span.to_csv ())));
  Obs.Span.reset ();
  check "reset clears" 0 (List.length (Obs.Span.finished ()))

(* Past capacity the oldest spans go: the ring keeps the newest 65536
   in finish order and counts the rest. *)
let span_ring_drops_oldest () =
  Obs.Span.reset ();
  let n = 65536 + 10 in
  for i = 0 to n - 1 do
    Obs.Span.finish ~now:(i + 1)
      (Obs.Span.start ~now:i ~label:"" ~parent:Obs.Span.none "s")
  done;
  check "capacity kept" 65536 (Obs.Span.count ());
  check "oldest dropped" 10 (Obs.Span.dropped ());
  (match Obs.Span.finished () with
  | first :: _ -> check "oldest retained is the 11th" 10 first.Obs.Span.id
  | [] -> Alcotest.fail "no spans retained");
  Obs.Span.reset ();
  check "reset restarts" 0 (Obs.Span.dropped ())

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

(* One domain pages a 32-page stretch through 4 frames: two sweeps,
   populate (demand-zero), then revisit so the early pages must come
   back from swap. *)
let paging_run () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:8 ~optimistic:0 () with
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
         for i = 0 to 31 do
           Domains.access d.System.dom (Stretch.page_base s i) `Write
         done;
         for i = 0 to 31 do
           Domains.access d.System.dom (Stretch.page_base s i) `Read
         done;
         finished := true));
  System.run sys ~until:(Time.sec 120);
  checkb "workload finished" true !finished

let instrumented_paging_run () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      paging_run ();
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

(* The same run with Obs off registers no metric and records no span. *)
let uninstrumented_paging_run () =
  Obs.set_enabled false;
  Obs.reset ();
  paging_run ();
  checkb "no metric registered" true (Obs.Metrics.snapshot () = []);
  check "no span recorded" 0 (Obs.Span.count ())

let suite =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counters and gauges" `Quick
          metrics_counters_and_gauges;
        Alcotest.test_case "histograms" `Quick metrics_histogram;
        Alcotest.test_case "registered on first write" `Quick
          metrics_registered_on_write;
        Alcotest.test_case "handle survives reset" `Quick
          metrics_handle_survives_reset;
        Alcotest.test_case "write allocation" `Quick write_allocation;
        Alcotest.test_case "USD and link cycles with Obs on" `Quick
          obs_on_cycle_allocation ] );
    ( "obs.ring",
      [ Alcotest.test_case "wraparound" `Quick ring_wraparound ] );
    ( "obs.span",
      [ Alcotest.test_case "nesting" `Quick span_nesting;
        Alcotest.test_case "drops oldest past capacity" `Quick
          span_ring_drops_oldest ] );
    ( "obs.qos_audit",
      [ Alcotest.test_case "cpu undersupply" `Quick audit_cpu_undersupply;
        Alcotest.test_case "usd undersupply" `Quick audit_usd_undersupply;
        Alcotest.test_case "memory and revocation" `Quick
          audit_mem_and_revocation ] );
    ( "obs.integration",
      [ Alcotest.test_case "instrumented paging run" `Quick
          instrumented_paging_run;
        Alcotest.test_case "nothing registered with Obs off" `Quick
          uninstrumented_paging_run ] ) ]
