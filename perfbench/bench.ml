(* Outside-in benchmark of the self-paging simulator.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Runs the workload's fixed span over freshly built machines for as
   many rounds as fit in S seconds of host time. --trace 0
   prints the end-to-end metrics, measured with tracing off (at least
   two untraced spans); --trace 1 alternates untraced and traced spans
   (at least one pair) and prints the per-layer metrics. Either way a
   traced span is checked against the untraced ones, and the command
   exits non-zero unless every output check holds. The last line of
   standard output is one JSON object. See README.md next to this file
   for the workloads and metrics. *)

open Engine
open Core

let max_iters = 200

(* set-ups timed before each span, besides the span's own, after
   untimed ones that let the caches refill after the previous span *)
let setups_per_span = 8
let setup_warmups = 2

(* ---- small helpers -------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float a /. float b
let us ns = float ns /. 1e3
let get_snap = function Some s -> s | None -> invalid_arg "snapshot missing"

(* FNV-style hash over recorded samples, in recording order. *)
let hash_samples (s : Probe.samples) =
  let h = ref 0 in
  for i = 0 to s.Probe.n - 1 do
    h := (!h lxor Bigarray.Array1.get s.Probe.data i) * 0x100000001B3
  done;
  !h

(* ---- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let lm name value unit_ note = { name; value; unit_; note }
let pct_note a = Printf.sprintf "n=%d" (Array.length a)

(* ---- the EDF pick-next probe ----------------------------------------- *)

(* Host ns per [Edf.replenish_due] + [Edf.select ~only] on a fresh
   scheduler holding [clients] contracts shaped like the workload's,
   three of them runnable: the decision every CPU, USD and link
   scheduler makes per event. Median of nine timed batches. *)
let select_ns ~clients =
  let open Sched in
  let e = Edf.create () in
  let slice = Time.us (max 20 (7_700 / clients)) in
  let cs =
    Array.init clients (fun i ->
        match
          Edf.admit e ~name:(string_of_int i) ~period:(Time.ms 10) ~slice ~now:0
            ()
        with
        | Ok c -> c
        | Error m -> failwith m)
  in
  let runnable = min 3 clients in
  let ids = Array.init 3 (fun j -> cs.(min j (runnable - 1) * clients / runnable).Edf.id) in
  let only (c : Edf.client) =
    let id = c.Edf.id in
    id = ids.(0) || id = ids.(1) || id = ids.(2)
  in
  let now = ref 0 in
  let step () =
    now := !now + Time.us 50;
    Edf.replenish_due e ~now:!now;
    match Edf.select ~only e ~now:!now with
    | Some c -> Edf.charge c (Time.us 50)
    | None -> ()
  in
  let batch = 20_000 in
  for _ = 1 to batch do step () done;
  median
    (List.init 9 (fun _ ->
         let t0 = Probe.now_ns () in
         for _ = 1 to batch do step () done;
         float (Probe.now_ns () - t0) /. float batch))

let layers (r : Machine.t) ~accesses ~alloc_per_event ~select =
  let open Machine in
  let s = get_snap r.start_snap and e = get_snap r.end_snap in
  let win = e.time - s.time in
  let sp = r.b.spans in
  let compute = r.spec.compute in
  let cpu_wait = ref [] and bk_read = ref [] and bk_write = ref [] in
  for i = sp.Probe.len - 1 downto 0 do
    let en = sp.Probe.stop.{i} in
    if en >= 0 then begin
      let d = en - sp.Probe.start.{i} in
      let k = sp.Probe.kind.{i} in
      if k = Probe.k_cpu then cpu_wait := (d - compute) :: !cpu_wait
      else if k = Probe.k_read then bk_read := d :: !bk_read
      else if k = Probe.k_write then bk_write := d :: !bk_write
    end
  done;
  let sorted l =
    let a = Array.of_list l in
    Array.sort Int.compare a;
    a
  in
  let cpu_wait = sorted !cpu_wait and bk_read = sorted !bk_read
  and bk_write = sorted !bk_write in
  (* self time of the accesses that faulted: their backing and cpu
     children removed *)
  let self_fault = Probe.self_times sp ~kind:Probe.k_fault in
  let d f = f e - f s in
  let info_sum f =
    let acc = ref 0 in
    Array.iteri (fun i ie -> acc := !acc + f ie - f s.info.(i)) e.info;
    !acc
  in
  let events = r.events in
  let usd_busy, usd_lax, usd_errors =
    let busy = ref 0 and lax = ref 0 and errs = ref 0 in
    Trace.iter
      (fun at ev ->
        if at > s.time && at <= e.time then
          match ev with
          | Usbs.Usd.Txn { dur; _ } -> busy := !busy + dur
          | Usbs.Usd.Txn_error { dur; _ } ->
            busy := !busy + dur;
            incr errs
          | Usbs.Usd.Lax { dur; _ } -> lax := !lax + dur
          | Usbs.Usd.Slack { dur; _ } -> busy := !busy + dur
          | Usbs.Usd.Alloc _ -> ())
      (Usbs.Usd.trace (System.usd r.sys));
    (ratio !busy win, ratio !lax win, !errs)
  in
  let fleet = r.fleet <> None in
  let disk_txns = d (fun x -> x.disk_hits) + d (fun x -> x.disk_mech) in
  let store_sum f =
    let acc = ref 0 in
    Array.iteri (fun i st -> acc := !acc + f st - f s.stores.(i)) e.stores;
    !acc
  in
  let fs f = match (e.fleet_stats, s.fleet_stats) with
    | Some a, Some b -> f a - f b
    | _ -> 0
  in
  let nlinks =
    match r.spec.fleet with Some f -> f.nodes | None -> 0
  in
  let p a q = us (Probe.rank a q) in
  (* backing-call latency belongs to the layer the driver writes
     through: the USD on the disk workloads, the fleet on the other *)
  let lat name present a q =
    if present then lm name (p a q) "sim_us" (pct_note a)
    else lm name 0.0 "sim_us" "not on this workload's path"
  in
  let usd_layer = not fleet in
  [ lm "engine.events" (float events) "count" "Sim.step calls over the span";
    lm "engine.events_per_access" (ratio events (sum (fun a -> a.total) r.apps))
      "count" "events / accesses completed over the span";
    lm "engine.alloc_words_per_event"
      alloc_per_event "words" "untraced span";
    lm "engine.pending_peak" (float r.pending_peak) "count" "max Sim.pending";
    lm "engine.step_ns_p50" (float (Probe.hist_rank r.b.steps 0.5)) "ns"
      (Printf.sprintf "n=%d" r.b.steps.Probe.total);
    lm "engine.step_ns_p99" (float (Probe.hist_rank r.b.steps 0.99)) "ns"
      (Printf.sprintf "n=%d" r.b.steps.Probe.total);
    lm "sched.select_ns" select "ns"
      (Printf.sprintf "%d clients, 3 runnable" (Array.length r.apps));
    lm "sched.cpu_wait_us_mean" (Probe.mean cpu_wait /. 1e3) "sim_us" (pct_note cpu_wait);
    lm "sched.cpu_wait_us_p99" (p cpu_wait 0.99) "sim_us" (pct_note cpu_wait);
    lm "sched.cpu_busy_frac" (ratio (d (fun x -> x.cpu_used)) win) "ratio"
      "sum of Domains.cpu_used / window";
    lm "core.faults" (float (d (fun x -> x.faults))) "count" "window";
    lm "core.fast_path_frac"
      (ratio (d (fun x -> x.fast)) (d (fun x -> x.fast) + d (fun x -> x.slow)))
      "ratio" "Mm_entry fast / (fast + slow)";
    lm "core.fault_self_us_mean" (Probe.mean self_fault /. 1e3) "sim_us"
      (pct_note self_fault);
    lm "core.revocations" (float (d (fun x -> x.revocations))) "count" "window";
    lm "policy.miss_rate"
      (ratio (info_sum (fun i -> i.Sd_paged.page_ins + i.Sd_paged.demand_zeros)) accesses)
      "ratio" "(page_ins + demand_zeros) / accesses";
    lm "policy.prefetch_hit_frac"
      (ratio (info_sum (fun i -> i.Sd_paged.prefetch_hits))
         (info_sum (fun i -> i.Sd_paged.prefetched)))
      "ratio" "prefetch_hits / prefetched";
    lm "policy.page_outs_per_access"
      (ratio (info_sum (fun i -> i.Sd_paged.page_outs)) accesses)
      "count" "page_outs / accesses";
    lat "usd.read_us_p50" usd_layer bk_read 0.5;
    lat "usd.read_us_p99" usd_layer bk_read 0.99;
    lat "usd.write_us_p50" usd_layer bk_write 0.5;
    lat "usd.write_us_p99" usd_layer bk_write 0.99;
    lm "usd.busy_frac" usd_busy "ratio" "Txn durations / window";
    lm "usd.lax_frac" usd_lax "ratio" "Lax durations / window";
    lm "usd.txn_errors" (float usd_errors) "count" "window";
    lm "disk.cache_hit_frac" (ratio (d (fun x -> x.disk_hits)) disk_txns) "ratio"
      "cache_hits / (cache_hits + mechanical_ops)";
    lm "disk.seeks_per_txn" (ratio (d (fun x -> x.disk_seeks)) disk_txns) "count"
      "seeks / disk operations";
    lat "tier.read_us_p50" fleet bk_read 0.5;
    lat "tier.read_us_p99" fleet bk_read 0.99;
    lat "tier.write_us_p50" fleet bk_write 0.5;
    lm "tier.cache_hit_frac"
      (ratio
         (store_sum (fun x -> x.Tier.Fleet.st_cache_hits))
         (store_sum (fun x ->
              x.Tier.Fleet.st_cache_hits + x.Tier.Fleet.st_fleet_hits
              + x.Tier.Fleet.st_fleet_misses)))
      "ratio" "RAM-cache hits / backing reads";
    lm "tier.degraded_frac"
      (ratio (fs (fun x -> x.Tier.Fleet.degraded_reads))
         (store_sum (fun x -> x.Tier.Fleet.st_fleet_hits)))
      "ratio" "degraded reads / fleet reads";
    lm "tier.retransmits" (float (fs (fun x -> x.Tier.Fleet.retransmits))) "count" "window";
    lm "tier.disk_fallbacks" (float (fs (fun x -> x.Tier.Fleet.disk_fallbacks))) "count" "window";
    lm "tier.lost_slots"
      (float (Array.fold_left (fun a x -> a + x.Tier.Fleet.st_lost_slots) 0 e.stores))
      "count" "end of span";
    lm "usnet.busy_frac"
      (ratio (d (fun x -> x.link_used)) (win * max 1 nlinks))
      "ratio" "domain clients' link time / (window x links)";
    lm "usnet.lax_frac"
      (ratio (d (fun x -> x.link_lax)) (win * max 1 nlinks))
      "ratio" "lax time / (window x links)";
    lm "usnet.packets_per_access" (ratio (d (fun x -> x.link_packets)) accesses)
      "count" "packets / accesses" ]

(* ---- one span's results --------------------------------------------- *)

type result = {
  wall_s : float;
  setup_s : float;
  chunks : int;  (* untraced spans: chunks in the per-chunk minima *)
  alloc_words : float;
  top_heap_words : int;
  events : int;
  warmup_events : int;
  span_ns : int;  (* simulated length of the whole span *)
  window_ns : int;
  reads : int array;  (* sorted simulated ns of faulting reads *)
  writes : int array;
  attempted : int;
  completed : int;
  failed : int;
  boundaries : int;
  violations : int;
  fingerprint : string;  (* every simulated figure, compared byte for byte *)
  checks : (string * bool) list;
  layers : metric list;  (* traced spans only *)
}

let frame_books sys =
  let fr = System.frames sys in
  let held =
    List.fold_left
      (fun acc d -> acc + Frames.held d.System.frames_client)
      0 (System.domains sys)
  in
  let rt = System.ramtab sys in
  let owned = ref 0 in
  for pfn = 0 to Hw.Ramtab.nframes rt - 1 do
    if Hw.Ramtab.owner rt ~pfn <> None then incr owned
  done;
  Frames.free_frames fr + held = Frames.total_frames fr && !owned = held

let gen_digest apps =
  Array.fold_left
    (fun h (a : Machine.app) -> (h lxor Gen.digest a.Machine.gen) * 0x100000001B3)
    0 apps

let summarize (r : Machine.t) ~alloc_per_event ~select =
  let open Machine in
  let ended =
    r.start_snap <> None && (not r.timed_out) && not r.drained
  in
  let apps = r.apps in
  (* an access in flight in a dead domain failed with it *)
  let dead_flight, live_flight =
    Array.fold_left
      (fun (dead, live) a ->
        if a.flight <> 2 then (dead, live)
        else if Domains.alive a.d.System.dom then (dead, live + 1)
        else (dead + 1, live))
      (0, 0) apps
  in
  let attempted = sum (fun a -> a.attempted) apps in
  let completed = sum (fun a -> a.completed) apps in
  let failed = sum (fun a -> a.failed) apps + dead_flight in
  let reads = Probe.sorted r.b.read_faults in
  let writes = Probe.sorted r.b.write_faults in
  let audit = Obs.Qos_audit.summarize () in
  let e = get_snap r.end_snap in
  let window_ns =
    match r.start_snap with Some s -> e.time - s.time | None -> 0
  in
  let fold_info f = Array.fold_left (fun acc i -> acc + f i) 0 e.info in
  let lost_pages = fold_info (fun i -> i.Sd_paged.lost_pages) in
  let lost_slots =
    Array.fold_left (fun acc s -> acc + s.Tier.Fleet.st_lost_slots) 0 e.stores
  in
  let page_io = fold_info (fun i -> i.Sd_paged.page_ins + i.Sd_paged.page_outs) in
  let fingerprint =
    Printf.sprintf
      "window=%d events=%d attempted=%d completed=%d failed=%d flight=%d \
       reads=%d/%d/%d/%x writes=%d/%d/%d/%x qos=%d/%d page_io=%d digest=%x"
      window_ns r.events attempted completed failed live_flight
      (Array.length reads) (Probe.rank reads 0.5) (Probe.rank reads 0.99)
      (hash_samples r.b.read_faults) (Array.length writes)
      (Probe.rank writes 0.5) (Probe.rank writes 0.99)
      (hash_samples r.b.write_faults) audit.Obs.Qos_audit.audited_boundaries
      audit.Obs.Qos_audit.violations page_io (gen_digest apps)
  in
  let checks =
    [ ("every domain reached its measured loop and the span its sentinel",
       ended);
      ("frame books balance (free + held = total, RamTab owners agree)",
       frame_books r.sys);
      ("fleet books balance",
       match r.fleet with Some f -> Tier.Fleet.books_balanced f | None -> true);
      ("no committed page lost (lost_pages = 0, st_lost_slots = 0)",
       lost_pages = 0 && lost_slots = 0);
      ("every attempted access completed, failed, or is still in flight",
       attempted = completed + failed + live_flight
       && live_flight <= Array.length apps);
      ("sample buffers, span store and chunk minima did not overflow",
       r.b.read_faults.Probe.dropped = 0
       && r.b.write_faults.Probe.dropped = 0
       && r.b.spans.Probe.lost = 0
       && r.chunks <= Probe.minima_capacity r.b.least) ]
  in
  { wall_s = float r.wall_ns /. 1e9;
    setup_s = 0.0;
    chunks = r.chunks;
    alloc_words = r.alloc_words;
    top_heap_words = r.top_heap_words;
    events = r.events;
    warmup_events = r.events_at_window;
    span_ns = e.time - r.go_at;
    window_ns; reads; writes; attempted; completed; failed;
    boundaries = audit.Obs.Qos_audit.audited_boundaries;
    violations = audit.Obs.Qos_audit.violations;
    fingerprint; checks;
    layers =
      (if r.traced && ended then
         layers r ~accesses:completed ~alloc_per_event ~select
       else []) }

(* Set-up and span start from a collected heap, so neither pays for
   the previous machine's garbage. *)
let timed_build spec ~seed ~traced b =
  Gc.full_major ();
  let t0 = Probe.now_ns () in
  let r = Machine.build spec ~seed ~traced b in
  (r, float (Probe.now_ns () - t0) /. 1e9)

let run_once spec ~seed ~traced ?(alloc_per_event = 0.0) ?(select = 0.0) b =
  let r, setup_s = timed_build spec ~seed ~traced b in
  Machine.simulate r;
  { (summarize r ~alloc_per_event ~select) with setup_s }

(* Digest of the first draws of every domain's stream under [seed]:
   a different seed must give different inputs. *)
let stream_digest (spec : Machine.spec) ~seed =
  let h = ref 0 in
  Array.iteri
    (fun i (a : Machine.app_spec) ->
      let g = Gen.create ~seed ~stream:i a.Machine.pattern ~npages:a.Machine.pages in
      for j = 0 to a.Machine.pages - 1 do ignore (Gen.populate_page g j) done;
      for _ = 1 to 1000 do ignore (Gen.next g) done;
      h := (!h lxor Gen.digest g) * 0x100000001B3)
    spec.Machine.apps;
  !h

(* ---- reporting ------------------------------------------------------ *)

let end_to_end (all : result list) ~setups ~(b : Machine.bufs) =
  (* the first span follows the same set-ups in every fresh process: its
     allocation and peak heap are the reproducible ones *)
  let first = List.nth all (List.length all - 1) in
  let n = List.length all in
  let win_s = float first.window_ns /. 1e9 in
  let p a q = us (Probe.rank a q) in
  let failed_frac = ratio first.failed first.attempted in
  let qos_frac = ratio first.violations first.boundaries in
  [ lm "setup_s" (median setups) "s"
      (Printf.sprintf "median of %d, spread over the run" (List.length setups));
    lm "wall_s" (float (Probe.minima_sum b.Machine.least ~chunks:first.chunks) /. 1e9) "s"
      (Printf.sprintf
         "sum over %d chunks of %d events of each chunk's least time in %d spans \
          (median span %.3f s); %.1f s simulated, %d events (%d in warm-up)"
         first.chunks Machine.chunk_events n
         (median (List.map (fun x -> x.wall_s) all))
         (float first.span_ns /. 1e9) first.events first.warmup_events);
    lm "alloc_mwords" (first.alloc_words /. 1e6) "Mwords" "first span";
    lm "peak_heap_mb"
      (float first.top_heap_words *. float (Sys.word_size / 8) /. 131072.0)
      "MB" "Gc top_heap_words after the first span";
    lm "accesses_per_sim_s" (float first.completed /. win_s) "1/sim_s"
      (Printf.sprintf "%d accesses in a %.1f s window" first.completed win_s);
    lm "read_fault_p50_us" (p first.reads 0.5) "sim_us" (pct_note first.reads);
    lm "read_fault_p99_us" (p first.reads 0.99) "sim_us" (pct_note first.reads);
    lm "write_fault_p50_us" (p first.writes 0.5) "sim_us" (pct_note first.writes);
    lm "write_fault_p99_us" (p first.writes 0.99) "sim_us" (pct_note first.writes);
    lm "qos_violation_frac" qos_frac "ratio"
      (Printf.sprintf "%d violations / %d audited boundaries" first.violations
         first.boundaries);
    lm "failed_frac" failed_frac "ratio"
      (Printf.sprintf "%d failed / %d attempted" first.failed first.attempted);
    (* never-zero complements of the two fractions above, for the
       regression gate *)
    lm "qos_met_frac" (1.0 -. qos_frac) "ratio" "1 - qos_violation_frac";
    lm "completed_frac" (1.0 -. failed_frac) "ratio" "1 - failed_frac" ]

(* [wall_s] is printed but not gated: the host it was tuned on swings
   by up to 2x for ten minutes at a time, more than any bound allows
   (see README.md). It goes out as [engine.wall_s] with the per-layer
   metrics instead. *)
let gated_end_to_end =
  [ "setup_s"; "alloc_mwords"; "peak_heap_mb"; "accesses_per_sim_s";
    "read_fault_p50_us"; "read_fault_p99_us"; "write_fault_p50_us";
    "write_fault_p99_us"; "qos_met_frac"; "completed_frac" ]

(* Per-layer figures: the median over the traced spans (simulated ones
   are identical in every span; host-timed ones are not). *)
let per_layer (traced : result list) ~(untraced : result list) ~(wall : metric) =
  match traced with
  | [] -> []
  | t :: _ ->
    let overhead =
      median (List.map (fun x -> x.wall_s) traced)
      /. median (List.map (fun x -> x.wall_s) untraced)
      -. 1.0
    in
    List.mapi
      (fun i m ->
        { m with
          value =
            median (List.map (fun x -> (List.nth x.layers i).value) traced) })
      t.layers
    @ [ { wall with name = "engine.wall_s" };
        lm "trace_overhead_frac" overhead "ratio"
          "median traced span / median untraced span - 1" ]

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-30s %16.6g %-7s %s\n" m.name m.value m.unit_ m.note)
    ms

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "0.0"

let json ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_num m.value) m.unit_)
          ms))

(* ---- main ----------------------------------------------------------- *)

let main ~workload ~seed ~seconds ~trace =
  match List.find_opt (fun s -> s.Machine.wname = workload) Machine.all with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
      (String.concat ", " (List.map (fun s -> s.Machine.wname) Machine.all));
    exit 2
  | Some spec ->
    (* A 256 KB minor heap fits this class of machine's per-core L2
       (2 MB); with the 2 MB default, host times swung by +-25% from one
       process to the next. Allocation counts do not depend on it. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 32_768 };
    let b = Machine.bufs () in
    let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
    let select =
      if trace then select_ns ~clients:(Array.length spec.Machine.apps) else 0.0
    in
    (* Set-up is cheap, and other tenants of the host slow it in bursts:
       it is timed many times, spread over the whole run, next to the
       spans (whose allocation figures are deltas over the span alone). *)
    let setups = ref [] in
    let untraced = ref [] and traced = ref [] in
    (* Rounds of set-ups and an untraced span (paired with a traced one
       under --trace 1) while another round still fits before the
       deadline: at least two untraced spans, or one pair. *)
    let rec loop k =
      let t0 = Probe.now_ns () in
      for _ = 1 to setup_warmups do
        ignore (Machine.build spec ~seed ~traced:false b)
      done;
      for _ = 1 to setups_per_span do
        setups := snd (timed_build spec ~seed ~traced:false b) :: !setups
      done;
      let u = run_once spec ~seed ~traced:false b in
      setups := u.setup_s :: !setups;
      untraced := u :: !untraced;
      let alloc_per_event = u.alloc_words /. float (max 1 u.events) in
      if trace then
        traced := run_once spec ~seed ~traced:true ~alloc_per_event ~select b :: !traced;
      let round = Probe.now_ns () - t0 in
      (* one traced span checks the untraced figures even when only the
         end-to-end metrics are asked for *)
      if (not trace) && k = 1 then traced := [ run_once spec ~seed ~traced:true b ];
      let enough = k >= (if trace then 1 else 2) in
      if k < max_iters && ((not enough) || Probe.now_ns () + round <= deadline) then
        loop (k + 1)
    in
    loop 1;
    let first = List.nth !untraced (List.length !untraced - 1) in
    if trace then begin
      let path =
        Filename.concat ".bench_build"
          (Printf.sprintf "perfbench-%s-spans.csv" spec.Machine.wname)
      in
      if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
      Probe.write_csv b.Machine.spans
        ~owner_name:(fun i -> spec.Machine.apps.(i).Machine.name)
        path;
      Printf.printf "spans of the last traced span written to %s\n" path
    end;
    let same l = List.for_all (fun x -> x.fingerprint = first.fingerprint) l in
    let all = !untraced @ !traced in
    let checks =
      List.map
        (fun (name, _) ->
          (name, List.for_all (fun x -> List.assoc name x.checks) all))
        first.checks
      @ [ ("same seed twice gives byte-identical simulated metrics", same all);
          ("every untraced span has the same chunks",
           List.for_all (fun x -> x.chunks = first.chunks) !untraced);
          ("the traced span reproduces the untraced simulated metrics",
           same !traced);
          ("another seed gives a different digest of the generated streams",
           stream_digest spec ~seed <> stream_digest spec ~seed:(seed + 1)) ]
    in
    let correct = List.for_all snd checks in
    Printf.printf "perfbench %s: seed %d, %d untraced + %d traced spans\n"
      spec.Machine.wname seed (List.length !untraced) (List.length !traced);
    Printf.printf "simulated figures: %s\n" first.fingerprint;
    Printf.printf "untraced span wall times (s): %s\n"
      (String.concat " "
         (List.rev_map (fun x -> Printf.sprintf "%.3f" x.wall_s) !untraced));
    Printf.printf "allocation repeats exactly across untraced spans: %b\n"
      (List.for_all (fun x -> x.alloc_words = first.alloc_words) !untraced);
    if Array.length first.reads < 1000 || Array.length first.writes < 1000 then
      print_endline "warning: a fault-latency p99 rests on fewer than 1000 samples";
    let e2e = end_to_end !untraced ~setups:!setups ~b in
    print_table "end-to-end (untraced):" e2e;
    let layer =
      per_layer (if trace then !traced else []) ~untraced:!untraced
        ~wall:(List.find (fun m -> m.name = "wall_s") e2e)
    in
    if trace then print_table "per-layer (traced):" layer;
    print_endline "checks:";
    List.iter
      (fun (name, ok) -> Printf.printf "  %s  %s\n" (if ok then "ok  " else "FAIL") name)
      checks;
    let reported =
      if trace then layer
      else List.filter (fun m -> List.mem m.name gated_end_to_end) e2e
    in
    print_endline
      (json ~correct ~attempted:first.attempted ~failed:first.failed reported);
    if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME disk-paper | many-domains | fleet-degraded");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  with Machine.Setup_failed msg ->
    Printf.eprintf "perfbench: setup failed: %s\n" msg;
    exit 1
