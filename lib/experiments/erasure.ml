open Engine
open Core

type cell = {
  c_name : string;
  c_mode : string;
  c_domains : Harness.domain_report list;
  c_fleet : Tier.Fleet.stats;
  c_health : Tier.Fleet.node_health list;
  c_books_balanced : bool;
  c_store_totals : Tier.Fleet.store_stats;
  c_lost_slots : int;
  c_overhead : float;
  c_degraded_count : int;
  c_degraded_mean_us : float;
  c_disk_floor_us : float;
  c_bystander_violations : int;
  c_tiered_violations : int;
  c_audit : Obs.Qos_audit.summary;
}

type result = {
  seed : int;
  duration : Time.span;
  replicated : cell;
  erasure : cell;
  speedup : float;
  deterministic : bool;
}

(* A six-member ring so an Erasure {k = 4; m = 2} stripe spans every
   member, plus one standby that joins mid-run. Capacity is generous:
   the experiment is about losses and degraded reads, not placement
   pressure (the failover experiment covers full nodes). *)
let member_count = 6
let node_capacity = 420
let node_name i = Printf.sprintf "n%d" i
let standby_name = "n6"

(* Two wipes, m losses apart, plus a membership change and a lossy
   checksum — all virtual time / plan-seeded dice, no wall clock:
   n1 forgets its contents at T/3, n2 at 0.45 T (so an erasure stripe
   is down exactly m = 2 shards until repair catches up), the standby
   joins at 0.6 T, and every shard served by n3 has a 2% chance of
   failing its checksum. *)
let plan_for ~seed ~duration =
  let d = Time.to_ns duration in
  { Inject.default_plan with
    seed;
    node_faults =
      [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
        Inject.node_fault ~wipe_at:(Time.ns (d * 45 / 100)) (node_name 2);
        Inject.node_fault ~join_at:(Time.ns (d * 3 / 5)) standby_name;
        Inject.node_fault ~corrupt:0.02 (node_name 3) ] }

(* The fleet rides a gigabit fabric with jumbo frames — the
   disaggregated-memory premise (the network is an order of magnitude
   closer to DRAM than the disk); a shard or a whole page fits one
   frame. The disk floor the degraded path is measured against is the
   same one the bystanders pay. *)
let mk_node sys ~capacity =
  Harness.remote_node sys ~params:Usnet.Net_params.gigabit ~capacity

(* The repair budget is the same deliberate trickle as the failover
   experiment (2 entries every 250 ms): with two nodes wiped the fleet
   cannot re-shard fast enough, so reads in the window MUST be served
   degraded — that window is what the experiment measures. *)
let build_fleet ~seed ~redundancy sys =
  Tier.Fleet.create ~seed ~redundancy
    ~standby:[ mk_node sys ~capacity:node_capacity standby_name ]
    ~repair_period:(Time.ms 250) ~repair_budget:2
    ~nodes:
      (List.init member_count (fun i ->
           mk_node sys ~capacity:node_capacity (node_name i)))
    (System.sim sys)

let run_cell ~seed ~duration ~name ~mode ~redundancy =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let fleet = build_fleet ~seed ~redundancy sys in
  let stores = ref [] in
  (* per-node links: 3 domains x 5/20 + the fleet's repair client
     2/20 = 0.85 of each link *)
  let apps =
    Harness.start_domains ~experiment:"erasure" sys ~tiered_prefix:"fleet_"
      ~backing:(fun nm ->
        Harness.fleet_backing ~experiment:"erasure"
          ~context:[ ("cell", name); ("app", nm) ]
          fleet ~client:(nm ^ ".tier") ~spec:"fleet:cache-pages=24"
          ~on_store:(fun s -> stores := s :: !stores))
  in
  Inject.arm (plan_for ~seed ~duration);
  System.run ~until:duration sys;
  Inject.disarm ();
  System.run ~until:(Time.add duration (Time.sec 2)) sys;
  let reports = Harness.domain_reports apps in
  (* the disk durability floor the degraded path must beat: the
     bystanders' pooled fault-service latency over the same run *)
  let disk_floor =
    let count = ref 0 and sum = ref 0.0 in
    List.iter
      (fun r ->
        match Obs.Metrics.hist_view ~label:r.Harness.dr_name "fault.latency_us" with
        | Some v when not r.Harness.dr_tiered ->
            count := !count + v.Obs.Metrics.hv_count;
            sum := !sum +. (v.Obs.Metrics.hv_mean *. float_of_int v.Obs.Metrics.hv_count)
        | _ -> ())
      reports;
    if !count = 0 then nan else !sum /. float_of_int !count
  in
  let degraded_count, degraded_mean =
    match Obs.Metrics.hist_view ~label:"fleet" "fleet.degraded_us" with
    | Some v -> (v.Obs.Metrics.hv_count, v.Obs.Metrics.hv_mean)
    | None -> (0, nan)
  in
  let store_totals = Harness.store_totals !stores in
  { c_name = name;
    c_mode = mode;
    c_domains = reports;
    c_fleet = Tier.Fleet.stats fleet;
    c_health = Tier.Fleet.health fleet;
    c_books_balanced = Tier.Fleet.books_balanced fleet;
    c_store_totals = store_totals;
    c_lost_slots = store_totals.Tier.Fleet.st_lost_slots;
    c_overhead = Tier.Fleet.storage_overhead fleet;
    c_degraded_count = degraded_count;
    c_degraded_mean_us = degraded_mean;
    c_disk_floor_us = disk_floor;
    c_bystander_violations = Harness.violations ~tiered:false reports;
    c_tiered_violations = Harness.violations ~tiered:true reports;
    c_audit = Obs.Qos_audit.summarize () }

let cell_to_json c =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "  {\"cell\": %S, \"mode\": %S,\n" c.c_name c.c_mode);
  Buffer.add_string b
    (Printf.sprintf "   \"domains\": [%s],\n"
       (String.concat ", " (List.map Harness.domain_json c.c_domains)));
  let f = c.c_fleet in
  Buffer.add_string b
    (Printf.sprintf
       "   \"fleet\": {\"stores\": %d, \"acks\": %d, \"lost_primaries\": %d, \
        \"failovers\": %d, \"rebuilds\": %d, \"disk_fallbacks\": %d, \
        \"lost_shards\": %d, \"degraded_reads\": %d, \"reconstructions\": \
        %d, \"corrupt_shards\": %d, \"migrations\": %d, \"node_joins\": %d, \
        \"node_retires\": %d, \"quarantines\": %d, \"readmissions\": %d, \
        \"wipes_applied\": %d, \"repair_rounds\": %d},\n"
       f.Tier.Fleet.stores f.Tier.Fleet.acks f.Tier.Fleet.lost_primaries
       f.Tier.Fleet.failovers f.Tier.Fleet.rebuilds
       f.Tier.Fleet.disk_fallbacks f.Tier.Fleet.lost_shards
       f.Tier.Fleet.degraded_reads f.Tier.Fleet.reconstructions
       f.Tier.Fleet.corrupt_shards f.Tier.Fleet.migrations
       f.Tier.Fleet.node_joins f.Tier.Fleet.node_retires
       f.Tier.Fleet.quarantines f.Tier.Fleet.readmissions
       f.Tier.Fleet.wipes_applied f.Tier.Fleet.repair_rounds);
  let node h =
    Printf.sprintf
      "{\"name\": %S, \"member\": %b, \"used\": %d, \"capacity\": %d, \
       \"quarantined\": %b, \"quarantines\": %d, \"stores\": %d, \
       \"serves\": %d, \"failovers\": %d}"
      h.Tier.Fleet.nh_name h.Tier.Fleet.nh_member h.Tier.Fleet.nh_used
      h.Tier.Fleet.nh_capacity h.Tier.Fleet.nh_quarantined
      h.Tier.Fleet.nh_quarantines h.Tier.Fleet.nh_stores
      h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
  in
  Buffer.add_string b
    (Printf.sprintf "   \"nodes\": [%s],\n"
       (String.concat ", " (List.map node c.c_health)));
  Buffer.add_string b
    (Printf.sprintf
       "   \"books_balanced\": %b, \"lost_slots\": %d, \
        \"storage_overhead\": %s,\n"
       c.c_books_balanced c.c_lost_slots
       (if Float.is_nan c.c_overhead then "null"
        else Printf.sprintf "%.3f" c.c_overhead));
  Buffer.add_string b
    (Printf.sprintf
       "   \"degraded_reads\": %d, \"degraded_mean_us\": %s, \
        \"disk_floor_us\": %s,\n"
       c.c_degraded_count (Harness.json_f1 c.c_degraded_mean_us) (Harness.json_f1 c.c_disk_floor_us));
  Buffer.add_string b
    (Printf.sprintf
       "   \"bystander_violations\": %d, \"tiered_violations\": %d}"
       c.c_bystander_violations c.c_tiered_violations);
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.duration));
  Buffer.add_string b "  \"cells\": [\n";
  Buffer.add_string b (cell_to_json r.replicated);
  Buffer.add_string b ",\n";
  Buffer.add_string b (cell_to_json r.erasure);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"degraded_vs_disk_speedup\": %s,\n"
       (if Float.is_nan r.speedup then "null"
        else Printf.sprintf "%.1f" r.speedup));
  Buffer.add_string b
    (Printf.sprintf "  \"deterministic\": %b\n" r.deterministic);
  Buffer.add_string b "}";
  Buffer.contents b

(* Same-seed reproducibility is part of the verdict: both cells run
   twice — wipes, corruption dice, join, degraded reads, repair — and
   the canonical reports must match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let one () =
    let replicated =
      run_cell ~seed ~duration ~name:"replicated" ~mode:"R=2"
        ~redundancy:(Tier.Fleet.Replicated 2)
    in
    let erasure =
      run_cell ~seed ~duration ~name:"erasure" ~mode:"k=4,m=2"
        ~redundancy:(Tier.Fleet.Erasure { k = 4; m = 2 })
    in
    let speedup =
      if
        Float.is_nan erasure.c_degraded_mean_us
        || Float.is_nan erasure.c_disk_floor_us
        || erasure.c_degraded_mean_us <= 0.
      then nan
      else erasure.c_disk_floor_us /. erasure.c_degraded_mean_us
    in
    { seed; duration; replicated; erasure; speedup; deterministic = true }
  in
  let r1 = one () in
  let r2 = one () in
  let canon r = to_json { r with deterministic = true } in
  { r1 with deterministic = canon r1 = canon r2 }

let ok r =
  let base c =
    c.c_lost_slots = 0 && c.c_books_balanced
    && c.c_bystander_violations = 0
    && c.c_fleet.Tier.Fleet.wipes_applied >= 2
    && c.c_fleet.Tier.Fleet.node_joins >= 1
    && c.c_fleet.Tier.Fleet.migrations >= 1
  in
  base r.replicated && base r.erasure
  && r.erasure.c_fleet.Tier.Fleet.degraded_reads > 0
  && r.erasure.c_fleet.Tier.Fleet.reconstructions > 0
  && r.erasure.c_fleet.Tier.Fleet.corrupt_shards >= 1
  && (not (Float.is_nan r.erasure.c_overhead))
  && r.erasure.c_overhead <= 1.55
  && r.erasure.c_overhead < r.replicated.c_overhead
  && (not (Float.is_nan r.speedup))
  && r.speedup >= 50.0
  && r.deterministic

let print_cell c =
  Printf.printf "--- cell %s (%s) ---\n" c.c_name c.c_mode;
  Harness.domain_table ~tiered_label:"fleet" c.c_domains;
  let f = c.c_fleet in
  Printf.printf "placement: %d stores = %d acks (%s)\n" f.Tier.Fleet.stores
    f.Tier.Fleet.acks
    (if f.Tier.Fleet.stores = f.Tier.Fleet.acks then "balanced"
     else "UNBALANCED");
  (match f.Tier.Fleet.lost_shards with
  | 0 ->
      Printf.printf
        "primaries: %d lost = %d failovers + %d rebuilds + %d disk \
         fallbacks (%s)\n"
        f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers
        f.Tier.Fleet.rebuilds f.Tier.Fleet.disk_fallbacks
        (if c.c_books_balanced then "balanced" else "UNBALANCED")
  | _ ->
      Printf.printf
        "shards: %d lost = %d reconstructions + %d rebuilds + %d disk \
         fallbacks (%s)\n"
        f.Tier.Fleet.lost_shards f.Tier.Fleet.reconstructions
        f.Tier.Fleet.rebuilds f.Tier.Fleet.disk_fallbacks
        (if c.c_books_balanced then "balanced" else "UNBALANCED"));
  Printf.printf
    "health: %d wipes, %d corrupt shards, %d joins, %d migrations, %d \
     quarantines, %d repair rounds\n"
    f.Tier.Fleet.wipes_applied f.Tier.Fleet.corrupt_shards
    f.Tier.Fleet.node_joins f.Tier.Fleet.migrations f.Tier.Fleet.quarantines
    f.Tier.Fleet.repair_rounds;
  List.iter
    (fun h ->
      Printf.printf
        "  node %s: %s, %d/%d entries, %d stored, %d served, %d failovers%s\n"
        h.Tier.Fleet.nh_name
        (if h.Tier.Fleet.nh_member then "member" else "standby")
        h.Tier.Fleet.nh_used h.Tier.Fleet.nh_capacity h.Tier.Fleet.nh_stores
        h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
        (if h.Tier.Fleet.nh_quarantined then " [quarantined]" else ""))
    c.c_health;
  Printf.printf
    "storage overhead: %.3fx; degraded reads: %d (mean %s us) vs disk floor \
     %s us\n"
    c.c_overhead c.c_degraded_count
    (Harness.us c.c_degraded_mean_us)
    (Harness.us c.c_disk_floor_us);
  Printf.printf "committed pages lost: %d\n" c.c_lost_slots;
  Report.audit_section
    (Printf.sprintf "QoS audit (%s)" c.c_name)
    (Some c.c_audit);
  Printf.printf "bystander (disk-only) violations: %d\n\n"
    c.c_bystander_violations

let print r =
  Report.heading
    "Erasure: k-of-n stripes vs whole-page replicas under double node loss";
  Printf.printf
    "seed %d, %.0f s (wipes at T/3 and 0.45T, standby joins at 0.6T, 2%% \
     corrupt serves on n3) + 2 s drain\n\n"
    r.seed (Time.to_sec r.duration);
  print_cell r.replicated;
  print_cell r.erasure;
  Printf.printf
    "erasure degraded read %.0f us vs disk floor %.0f us: %.0fx faster at \
     %.2fx storage (replicas: %.2fx)\n"
    r.erasure.c_degraded_mean_us r.erasure.c_disk_floor_us r.speedup
    r.erasure.c_overhead r.replicated.c_overhead;
  Printf.printf "same-seed rerun: %s\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  print_endline
    (if ok r then
       "VERDICT: ok — two nodes lost, every read served from remote memory \
        or the disk floor with zero committed pages lost, parity at 1.5x \
        storage instead of 2x, books balance, reproducible"
     else "VERDICT: FAILED")

(* ------------------------------------------------------------------ *)
(* Benchmark: the price of parity, healthy and degraded.               *)

type bench_cell = {
  bc_name : string;
  bc_accesses : int;
  bc_mean_us : float;
  bc_half2_mean_us : float;
  bc_fleet_hits : int;
  bc_degraded : int;
  bc_reconstructions : int;
  bc_rebuilds : int;
  bc_overhead : float;
  bc_nodes : Tier.Fleet.node_health list;
}

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : bench_cell list;
  b_repl_us : float;
  b_ec_us : float;
  b_ec_wipe_us : float;
  b_disk_us : float;
  b_parity_price : float;
  b_ec_overhead : float;
  b_repl_overhead : float;
  b_ok : bool;
}

let bench_capacity = 420

(* One hotspot run against one backend; the fault-latency histogram is
   split at T/2, where the wipe (if any) lands — node n0 loses its
   contents between the two run legs, so with a six-node erasure
   stripe every post-wipe read is degraded until repair catches up. *)
let bench_cell ~seed ~duration ~name ~redundancy ?(repair = true) ~wipe () =
  let fleet redundancy sys =
    let nodes =
      List.init member_count (fun i ->
          mk_node sys ~capacity:bench_capacity (node_name i))
    in
    let _, n0, _ = List.hd nodes in
    (Tier.Fleet.create ~seed ~redundancy ~repair ~nodes (System.sim sys), n0)
  in
  let h =
    Harness.hotspot_run ~experiment:"erasure" ~context:[ ("cell", name) ]
      ~seed ~duration ?fleet:(Option.map fleet redundancy) ~wipe ()
  in
  let stat f =
    match h.Harness.hr_fleet with
    | Some fl -> f (Tier.Fleet.stats fl)
    | None -> 0
  in
  { bc_name = name;
    bc_accesses = h.Harness.hr_accesses;
    bc_mean_us = h.Harness.hr_mean_us;
    bc_half2_mean_us = h.Harness.hr_half2_mean_us;
    bc_fleet_hits =
      (Harness.store_totals (Option.to_list h.Harness.hr_store))
        .Tier.Fleet.st_fleet_hits;
    bc_degraded = stat (fun s -> s.Tier.Fleet.degraded_reads);
    bc_reconstructions = stat (fun s -> s.Tier.Fleet.reconstructions);
    bc_rebuilds = stat (fun s -> s.Tier.Fleet.rebuilds);
    bc_overhead =
      (match h.Harness.hr_fleet with
      | Some fl -> Tier.Fleet.storage_overhead fl
      | None -> nan);
    bc_nodes =
      (match h.Harness.hr_fleet with
      | Some fl -> Tier.Fleet.health fl
      | None -> []) }

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let disk =
    bench_cell ~seed ~duration ~name:"disk" ~redundancy:None ~wipe:false ()
  in
  let repl =
    bench_cell ~seed ~duration ~name:"replicated"
      ~redundancy:(Some (Tier.Fleet.Replicated 2)) ~wipe:false ()
  in
  let ec =
    bench_cell ~seed ~duration ~name:"erasure"
      ~redundancy:(Some (Tier.Fleet.Erasure { k = 4; m = 2 })) ~wipe:false ()
  in
  let ec_wipe =
    (* repair off: every post-wipe read pays the reconstruction, so
       the cell measures the degraded path itself rather than how fast
       the repair loop erases it *)
    bench_cell ~seed ~duration ~name:"erasure_wipe"
      ~redundancy:(Some (Tier.Fleet.Erasure { k = 4; m = 2 })) ~repair:false
      ~wipe:true ()
  in
  let parity_price =
    if
      Float.is_nan repl.bc_half2_mean_us
      || Float.is_nan ec.bc_half2_mean_us
      || repl.bc_half2_mean_us <= 0.
    then nan
    else ec.bc_half2_mean_us /. repl.bc_half2_mean_us
  in
  let fin f = not (Float.is_nan f) in
  let okv =
    fin parity_price
    && fin ec_wipe.bc_half2_mean_us
    && fin disk.bc_half2_mean_us
    && ec_wipe.bc_half2_mean_us <= 2.0 *. ec.bc_half2_mean_us
    && disk.bc_half2_mean_us >= 5.0 *. ec_wipe.bc_half2_mean_us
    && fin ec.bc_overhead
    && ec.bc_overhead <= 1.55
    && fin repl.bc_overhead
    && repl.bc_overhead >= 1.9
  in
  { b_seed = seed;
    b_duration = duration;
    b_cells = [ disk; repl; ec; ec_wipe ];
    b_repl_us = repl.bc_half2_mean_us;
    b_ec_us = ec.bc_half2_mean_us;
    b_ec_wipe_us = ec_wipe.bc_half2_mean_us;
    b_disk_us = disk.bc_half2_mean_us;
    b_parity_price = parity_price;
    b_ec_overhead = ec.bc_overhead;
    b_repl_overhead = repl.bc_overhead;
    b_ok = okv }

let bench_print r =
  Report.heading "Erasure benchmark: the price of parity, healthy and degraded";
  Printf.printf
    "seed %d, %.0f s per cell, hotspot; wipe (if any) at T/2; second-half \
     windows compared\n\n"
    r.b_seed (Time.to_sec r.b_duration);
  Report.table
    ~header:
      [ "cell"; "accesses"; "mean us"; "2nd-half us"; "fleet hits";
        "degraded"; "rebuilds"; "overhead" ]
    (List.map
       (fun c ->
         [ c.bc_name; string_of_int c.bc_accesses; Harness.us c.bc_mean_us;
           Harness.us c.bc_half2_mean_us; string_of_int c.bc_fleet_hits;
           string_of_int c.bc_degraded; string_of_int c.bc_rebuilds;
           (if Float.is_nan c.bc_overhead then "-"
            else Printf.sprintf "%.2fx" c.bc_overhead) ])
       r.b_cells);
  print_newline ();
  Printf.printf
    "parity price: %.2fx the replicated read (%.0f vs %.0f us) at %.2fx \
     storage instead of %.2fx; degraded %.0f us, disk %.0f us — %s\n"
    r.b_parity_price r.b_ec_us r.b_repl_us r.b_ec_overhead r.b_repl_overhead
    r.b_ec_wipe_us r.b_disk_us
    (if r.b_ok then "no disk-fallback cliff" else "CLIFF (or overhead off)")

let bench_to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.b_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.b_duration));
  let node h =
    Printf.sprintf
      "{\"name\": %S, \"member\": %b, \"used\": %d, \"stores\": %d, \
       \"serves\": %d, \"failovers\": %d, \"quarantines\": %d}"
      h.Tier.Fleet.nh_name h.Tier.Fleet.nh_member h.Tier.Fleet.nh_used
      h.Tier.Fleet.nh_stores h.Tier.Fleet.nh_serves h.Tier.Fleet.nh_failovers
      h.Tier.Fleet.nh_quarantines
  in
  let cell c =
    Printf.sprintf
      "{\"cell\": %S, \"accesses\": %d, \"mean_us\": %s, \"half2_mean_us\": \
       %s, \"fleet_hits\": %d, \"degraded_reads\": %d, \"reconstructions\": \
       %d, \"rebuilds\": %d, \"storage_overhead\": %s, \"nodes\": [%s]}"
      c.bc_name c.bc_accesses (Harness.json_f1 c.bc_mean_us) (Harness.json_f1 c.bc_half2_mean_us)
      c.bc_fleet_hits c.bc_degraded c.bc_reconstructions c.bc_rebuilds
      (if Float.is_nan c.bc_overhead then "null"
       else Printf.sprintf "%.3f" c.bc_overhead)
      (String.concat ", " (List.map node c.bc_nodes))
  in
  Buffer.add_string b
    (Printf.sprintf "  \"cells\": [%s],\n"
       (String.concat ",\n            " (List.map cell r.b_cells)));
  Buffer.add_string b
    (Printf.sprintf
       "  \"replicated_us\": %s, \"erasure_us\": %s, \"erasure_wipe_us\": \
        %s, \"disk_us\": %s,\n"
       (Harness.json_f1 r.b_repl_us) (Harness.json_f1 r.b_ec_us) (Harness.json_f1 r.b_ec_wipe_us) (Harness.json_f1 r.b_disk_us));
  Buffer.add_string b
    (Printf.sprintf
       "  \"parity_price\": %s, \"erasure_overhead\": %s, \
        \"replicated_overhead\": %s,\n"
       (if Float.is_nan r.b_parity_price then "null"
        else Printf.sprintf "%.3f" r.b_parity_price)
       (if Float.is_nan r.b_ec_overhead then "null"
        else Printf.sprintf "%.3f" r.b_ec_overhead)
       (if Float.is_nan r.b_repl_overhead then "null"
        else Printf.sprintf "%.3f" r.b_repl_overhead));
  Buffer.add_string b (Printf.sprintf "  \"ok\": %b\n" r.b_ok);
  Buffer.add_string b "}";
  Buffer.contents b
