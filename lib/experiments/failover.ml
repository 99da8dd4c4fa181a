open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  health : Tier.Fleet.node_health list;
  books_balanced : bool;
  store_totals : Tier.Fleet.store_stats;
  lost_slots : int;
  node_wipes : int;
  node_partitions : int;
  bystander_violations : int;
  tiered_violations : int;
  deterministic : bool;
  audit : Obs.Qos_audit.summary;
}

let node_count = 4
let node_capacity = 160
let node_name i = Printf.sprintf "n%d" i

(* The fault plan is pure virtual time, no dice: n1 loses its RAM for
   good at T/3 (the node stays up and answers "miss"); n2 falls off
   the network over [T/2, 2T/3] with its contents intact. *)
let plan_for ~seed ~duration =
  let d = Time.to_ns duration in
  { Inject.default_plan with
    seed;
    node_faults =
      [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
        Inject.node_fault
          ~partitions:[ (Time.ns (d / 2), Time.ns (d * 2 / 3)) ]
          (node_name 2) ] }

(* The repair budget is deliberately a trickle (2 copies every 250 ms):
   re-replicating a wiped node takes a large fraction of the run, so
   reads must fail over to survivors in the meantime — that window is
   the point of the experiment. *)
let build_fleet ~seed sys =
  fst
    (Harness.fleet sys ~seed ~params:Usnet.Net_params.fast_ethernet
       ~capacity:node_capacity ~redundancy:(Tier.Fleet.Replicated 2)
       ~repair_period:(Time.ms 250) ~repair_budget:2
       (List.init node_count node_name))

let run_once ~seed ~duration =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let fleet = build_fleet ~seed sys in
  let stores = ref [] in
  (* per-node links: 3 domains x 5/20 + the fleet's repair client
     2/20 = 0.85 of each link *)
  let apps =
    Harness.start_domains ~experiment:"failover" sys ~tiered_prefix:"fleet_"
      ~backing:(fun name ->
        Harness.fleet_backing ~experiment:"failover" fleet
          ~client:(name ^ ".tier") ~spec:"fleet:cache-pages=24"
          ~on_store:(fun s -> stores := s :: !stores))
  in
  (* Faults are armed from the start (they fire by virtual time); a
     quiet drain lets repair finish and in-flight packets settle
     before the books are read. *)
  Inject.arm (plan_for ~seed ~duration);
  System.run ~until:duration sys;
  Inject.disarm ();
  System.run ~until:(Time.add duration (Time.sec 2)) sys;
  let reports = Harness.domain_reports apps in
  let tally = Inject.tally () in
  let store_totals = Tier.Fleet.store_totals !stores in
  { seed;
    duration;
    domains = reports;
    fleet = Tier.Fleet.stats fleet;
    health = Tier.Fleet.health fleet;
    books_balanced = Tier.Fleet.books_balanced fleet;
    store_totals;
    lost_slots = store_totals.Tier.Fleet.st_lost_slots;
    node_wipes = tally.Inject.node_wipes;
    node_partitions = tally.Inject.node_partitions;
    bystander_violations = Harness.violations ~tiered:false reports;
    tiered_violations = Harness.violations ~tiered:true reports;
    deterministic = true;
    audit = Obs.Qos_audit.summarize () }

let to_json r =
  let f = r.fleet in
  let open Tier.Fleet in
  let node h =
    Json.obj
      [ ("name", Json.string h.nh_name); ("member", Json.bool h.nh_member);
        ("used", Json.int h.nh_used); ("capacity", Json.int h.nh_capacity);
        ("quarantined", Json.bool h.nh_quarantined);
        ("quarantines", Json.int h.nh_quarantines);
        ("readmissions", Json.int h.nh_readmissions);
        ("stores", Json.int h.nh_stores); ("serves", Json.int h.nh_serves);
        ("failovers", Json.int h.nh_failovers) ]
  in
  Json.obj
    [ ("seed", Json.int r.seed);
      ("duration_s", Json.fixed 0 (Time.to_sec r.duration));
      ("domains", Json.list (List.map Harness.domain_json r.domains));
      ( "fleet",
        Json.ints
          [ ("stores", f.stores); ("acks", f.acks);
            ("replica_skips", f.replica_skips);
            ("replica_timeouts", f.replica_timeouts);
            ("remote_fulls", f.remote_fulls);
            ("lost_primaries", f.lost_primaries); ("failovers", f.failovers);
            ("rebuilds", f.rebuilds); ("disk_fallbacks", f.disk_fallbacks);
            ("secondary_rebuilds", f.secondary_rebuilds);
            ("retransmits", f.retransmits); ("quarantines", f.quarantines);
            ("readmissions", f.readmissions); ("probes", f.probes);
            ("probe_failures", f.probe_failures);
            ("wipes_applied", f.wipes_applied);
            ("repair_rounds", f.repair_rounds) ] );
      ("nodes", Json.list (List.map node r.health));
      ("books_balanced", Json.bool r.books_balanced);
      ("stores", Harness.store_json r.store_totals);
      ("lost_slots", Json.int r.lost_slots);
      ("node_wipes", Json.int r.node_wipes);
      ("node_partitions", Json.int r.node_partitions);
      ("bystander_violations", Json.int r.bystander_violations);
      ("tiered_violations", Json.int r.tiered_violations);
      ("deterministic", Json.bool r.deterministic) ]

(* Same-seed reproducibility is part of the verdict: the whole run —
   wipe, partition, quarantine, repair — happens twice and the
   canonical reports must match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let r1 = run_once ~seed ~duration in
  let r2 = run_once ~seed ~duration in
  let canon r = to_json { r with deterministic = true } in
  { r1 with deterministic = canon r1 = canon r2 }

let ok r =
  r.bystander_violations = 0 && r.books_balanced && r.lost_slots = 0
  && r.node_wipes >= 1 && r.node_partitions >= 1
  && r.fleet.Tier.Fleet.wipes_applied >= 1
  && r.fleet.Tier.Fleet.failovers > 0
  && r.fleet.Tier.Fleet.rebuilds > 0
  && r.fleet.Tier.Fleet.quarantines >= 1
  && r.fleet.Tier.Fleet.readmissions >= 1
  && r.deterministic

let print r =
  Report.heading "Failover: replicated remote memory under node loss";
  Printf.printf
    "seed %d, %.0f s (wipe at T/3, partition over [T/2, 2T/3]) + 2 s drain\n\n"
    r.seed (Time.to_sec r.duration);
  Harness.domain_table ~tiered_label:"fleet" r.domains;
  print_newline ();
  let f = r.fleet in
  Printf.printf "placement: %d stores = %d acks (%s)\n" f.Tier.Fleet.stores
    f.Tier.Fleet.acks
    (if f.Tier.Fleet.stores = f.Tier.Fleet.acks then "balanced"
     else "UNBALANCED");
  Printf.printf
    "primaries: %d lost = %d failovers + %d rebuilds + %d disk fallbacks \
     (%s)\n"
    f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers f.Tier.Fleet.rebuilds
    f.Tier.Fleet.disk_fallbacks
    (if r.books_balanced then "balanced" else "UNBALANCED");
  Printf.printf
    "health: %d wipes applied, %d quarantines, %d probes, %d readmissions, \
     %d secondary rebuilds, %d repair rounds\n"
    f.Tier.Fleet.wipes_applied f.Tier.Fleet.quarantines f.Tier.Fleet.probes
    f.Tier.Fleet.readmissions f.Tier.Fleet.secondary_rebuilds
    f.Tier.Fleet.repair_rounds;
  List.iter
    (fun h ->
      Printf.printf "  node %s: %d/%d pages%s, %d quarantines, %d readmissions\n"
        h.Tier.Fleet.nh_name h.Tier.Fleet.nh_used h.Tier.Fleet.nh_capacity
        (if h.Tier.Fleet.nh_quarantined then " [quarantined]" else "")
        h.Tier.Fleet.nh_quarantines h.Tier.Fleet.nh_readmissions)
    r.health;
  Harness.print_store_totals r.store_totals;
  Printf.printf "committed pages lost: %d\n" r.lost_slots;
  Printf.printf "same-seed rerun: %s\n\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.audit_section "Failover QoS audit" (Some r.audit);
  Printf.printf "bystander (disk-only) violations: %d\n"
    r.bystander_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — node loss survived without safety loss, books \
        balance, bystanders unperturbed, reproducible"
     else "VERDICT: FAILED")
