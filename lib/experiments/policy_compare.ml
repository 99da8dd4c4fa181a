open Engine
open Core
open Workload

type row = {
  policy : string;
  pattern : string;
  accesses : int;
  faults : int;
  miss_rate : float;
  demand_ins : int;
  prefetched : int;
  prefetch_hits : int;
  prefetch_waste : int;
  page_outs : int;
  evictions : int;
  wb_flushes : int;
  rescues : int;
  mean_fault_us : float;
  p99_fault_us : float;
  app_mbit : float;
  contender_mbit : float;
  violations : int;
}

type result = { duration : Time.t; rows : row list }

(* The probe app: 256 pages of VM over 48 guaranteed frames, so the
   residency ratio is ~19% — small enough that sequential and random
   scans page hard, large enough that the hotspot working set (32
   pages) fits and a recency policy can keep it resident. *)
let probe_vm_pages = 256
let probe_frames = 48
let page_bytes = 8192

(* One cell of the comparison matrix: the probe app under [spec] and
   [pattern] (50% of the disk) next to a fixed contender (the seed
   policy, sequential, 25% of the disk). The contender witnesses QoS
   isolation: its throughput must not depend on the probe's policy,
   and the run must stay free of audit violations. *)
let run_cell ~duration ~seed spec (pat_name, pattern) =
  Obs.reset ();
  let sys = Harness.fresh_system ~seed () in
  let qos_probe =
    Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
  in
  let qos_rival =
    Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 62) ()
  in
  let probe =
    match
      Paging_app.start sys ~name:"probe" ~mode:Paging_app.Paging_in
        ~qos:qos_probe
        ~vm_bytes:(probe_vm_pages * page_bytes)
        ~phys_frames:probe_frames
        ~swap_bytes:(2 * probe_vm_pages * page_bytes)
        ~policy:spec ~pattern ()
    with
    | Ok a -> a
    (* Setup failwith: the policy spec was already resolved (typed)
       by the caller; a start failure here is a sizing bug. *)
    | Error e -> failwith ("policy-compare probe: " ^ e)
  in
  let rival =
    match
      Paging_app.start sys ~name:"rival" ~mode:Paging_app.Paging_in
        ~qos:qos_rival ()
    with
    | Ok a -> a
    | Error e -> failwith ("policy-compare rival: " ^ e)
  in
  System.run sys ~until:duration;
  let info = Paging_app.measured_info probe in
  let accesses = Paging_app.measured_accesses probe in
  let faults = info.Sd_paged.page_ins + info.Sd_paged.rescues in
  let mean_fault_us, p99_fault_us =
    match Obs.Metrics.hist_view ~label:"probe" "fault.latency_us" with
    | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.99)
    | None -> (nan, nan)
  in
  let row =
    { policy = Paging_app.policy_name probe;
      pattern = pat_name;
      accesses;
      faults;
      miss_rate =
        (if accesses = 0 then nan
         else float_of_int faults /. float_of_int accesses);
      demand_ins = info.Sd_paged.page_ins;
      prefetched = info.Sd_paged.prefetched;
      prefetch_hits = info.Sd_paged.prefetch_hits;
      prefetch_waste = info.Sd_paged.prefetch_waste;
      page_outs = info.Sd_paged.page_outs;
      evictions = info.Sd_paged.evictions;
      wb_flushes = info.Sd_paged.wb_flushes;
      rescues = info.Sd_paged.rescues;
      mean_fault_us;
      p99_fault_us;
      (* Overall progress rates (bytes touched over the whole run), not
         the sampler's steady-state rate: the contender pages a 4 MB
         stretch through 2 frames and on short runs never leaves its
         populate phase, and the probe's warm-up phases would make the
         sampled windows incomparable across policies. *)
      app_mbit =
        float_of_int (Paging_app.bytes_processed probe)
        *. 8.0 /. Time.to_sec duration /. 1e6;
      contender_mbit =
        float_of_int (Paging_app.bytes_processed rival)
        *. 8.0 /. Time.to_sec duration /. 1e6;
      violations = Obs.Qos_audit.total () }
  in
  Paging_app.stop probe;
  Paging_app.stop rival;
  row

let run ?(duration = Time.sec 60) ?(seed = 42)
    ?(policies = List.map snd Policy.Spec.presets) () =
  (* The experiment depends on the metrics/audit plane; run it with
     observability on, restoring the caller's setting afterwards. *)
  let was_enabled = !Obs.enabled in
  Obs.set_enabled true;
  let rows =
    List.concat_map
      (fun spec -> List.map (run_cell ~duration ~seed spec) Harness.patterns)
      policies
  in
  Obs.reset ();
  Obs.set_enabled was_enabled;
  { duration; rows }

let ok r =
  List.for_all (fun row -> row.violations = 0 && row.accesses > 0) r.rows

let print r =
  Report.heading
    (Printf.sprintf
       "Policy comparison: paging figure per policy x pattern (%.0fs runs)"
       (Time.to_sec r.duration));
  Report.table
    ~header:
      [ "policy"; "pattern"; "accesses"; "faults"; "miss"; "pref";
        "hit"; "waste"; "outs"; "wb"; "resc"; "mean flt us"; "p99 flt us";
        "Mbit/s"; "rival Mbit/s"; "qos viol" ]
    (List.map
       (fun row ->
         [ row.policy; row.pattern;
           string_of_int row.accesses;
           string_of_int row.faults;
           Report.f2 row.miss_rate;
           string_of_int row.prefetched;
           string_of_int row.prefetch_hits;
           string_of_int row.prefetch_waste;
           string_of_int row.page_outs;
           string_of_int row.wb_flushes;
           string_of_int row.rescues;
           Report.f1 row.mean_fault_us;
           Report.f1 row.p99_fault_us;
           Report.f2 row.app_mbit;
           Report.f2 row.contender_mbit;
           string_of_int row.violations ])
       r.rows);
  print_newline ();
  print_endline
    "Each run pairs the probe app (50% disk) with a fixed FIFO contender";
  print_endline
    "(25% disk): the contender's throughput and a zero violation count";
  print_endline "witness that policy choice stays inside the domain's own";
  print_endline "guarantee — self-paging makes paging policy a private matter."

let row_to_json row =
  let g = Json.signif 6 in
  Json.obj
    [ ("policy", Json.string row.policy); ("pattern", Json.string row.pattern);
      ("accesses", Json.int row.accesses); ("faults", Json.int row.faults);
      ("miss_rate", g row.miss_rate); ("demand_ins", Json.int row.demand_ins);
      ("prefetched", Json.int row.prefetched);
      ("prefetch_hits", Json.int row.prefetch_hits);
      ("prefetch_waste", Json.int row.prefetch_waste);
      ("page_outs", Json.int row.page_outs);
      ("evictions", Json.int row.evictions);
      ("wb_flushes", Json.int row.wb_flushes);
      ("rescues", Json.int row.rescues); ("mean_fault_us", g row.mean_fault_us);
      ("p99_fault_us", g row.p99_fault_us); ("app_mbit", g row.app_mbit);
      ("contender_mbit", g row.contender_mbit);
      ("qos_violations", Json.int row.violations) ]

let to_json r =
  Json.obj
    [ ("duration_s", Json.signif 6 (Time.to_sec r.duration));
      ("rows", Json.list (List.map row_to_json r.rows)) ]
