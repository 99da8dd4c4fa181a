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
   same one the bystanders pay.

   The repair budget is the same deliberate trickle as the failover
   experiment (2 entries every 250 ms): with two nodes wiped the fleet
   cannot re-shard fast enough, so reads in the window MUST be served
   degraded — that window is what the experiment measures. *)
let build_fleet ~seed ~redundancy sys =
  fst
    (Harness.fleet sys ~seed ~params:Usnet.Net_params.gigabit
       ~capacity:node_capacity ~redundancy ~standby:[ standby_name ]
       ~repair_period:(Time.ms 250) ~repair_budget:2
       (List.init member_count node_name))

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
  let store_totals = Tier.Fleet.store_totals !stores in
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
  let f = c.c_fleet in
  let open Tier.Fleet in
  let node h =
    Json.obj
      [ ("name", Json.string h.nh_name); ("member", Json.bool h.nh_member);
        ("used", Json.int h.nh_used); ("capacity", Json.int h.nh_capacity);
        ("quarantined", Json.bool h.nh_quarantined);
        ("quarantines", Json.int h.nh_quarantines);
        ("stores", Json.int h.nh_stores); ("serves", Json.int h.nh_serves);
        ("failovers", Json.int h.nh_failovers) ]
  in
  Json.obj
    [ ("cell", Json.string c.c_name); ("mode", Json.string c.c_mode);
      ("domains", Json.list (List.map Harness.domain_json c.c_domains));
      ( "fleet",
        Json.ints
          [ ("stores", f.stores); ("acks", f.acks);
            ("lost_primaries", f.lost_primaries); ("failovers", f.failovers);
            ("rebuilds", f.rebuilds); ("disk_fallbacks", f.disk_fallbacks);
            ("lost_shards", f.lost_shards);
            ("degraded_reads", f.degraded_reads);
            ("reconstructions", f.reconstructions);
            ("corrupt_shards", f.corrupt_shards);
            ("migrations", f.migrations); ("node_joins", f.node_joins);
            ("node_retires", f.node_retires); ("quarantines", f.quarantines);
            ("readmissions", f.readmissions);
            ("wipes_applied", f.wipes_applied);
            ("repair_rounds", f.repair_rounds) ] );
      ("nodes", Json.list (List.map node c.c_health));
      ("books_balanced", Json.bool c.c_books_balanced);
      ("lost_slots", Json.int c.c_lost_slots);
      ("storage_overhead", Json.fixed 3 c.c_overhead);
      ("degraded_reads", Json.int c.c_degraded_count);
      ("degraded_mean_us", Json.fixed 1 c.c_degraded_mean_us);
      ("disk_floor_us", Json.fixed 1 c.c_disk_floor_us);
      ("bystander_violations", Json.int c.c_bystander_violations);
      ("tiered_violations", Json.int c.c_tiered_violations) ]

let to_json r =
  Json.obj
    [ ("seed", Json.int r.seed);
      ("duration_s", Json.fixed 0 (Time.to_sec r.duration));
      ( "cells",
        Json.list [ cell_to_json r.replicated; cell_to_json r.erasure ] );
      ("degraded_vs_disk_speedup", Json.fixed 1 r.speedup);
      ("deterministic", Json.bool r.deterministic) ]

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
