open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  store_totals : Tier.Fleet.store_stats;
  node : Tier.Fleet.node_health;
  books_balanced : bool;
  link_drops : int;
  link_delays : int;
  link_utilisation : float;
  bystander_violations : int;
  tiered_violations : int;
  deterministic : bool;
  audit : Obs.Qos_audit.summary;
}

(* The link chaos plan: second-half packet loss and delay on the
   tier's link, nothing else — the disk stays clean so any bystander
   wobble could only have come through the network side. *)
let plan_for ~seed =
  { Inject.default_plan with
    seed;
    links =
      [ ( "tier0",
          { Inject.lf_drop = 0.06;
            lf_delay = 0.05;
            lf_delay_span = Time.of_ms_float 2.0 } ) ] }

let remote_capacity = 160

let run_once ~seed ~duration =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  (* The tier: a one-node [Replicated 1] fleet — the RAM cache over one
     remote memory node on its own link, over the disk. *)
  let fleet, nodes =
    Harness.fleet sys ~seed ~params:Usnet.Net_params.fast_ethernet
      ~capacity:remote_capacity ~redundancy:(Tier.Fleet.Replicated 1)
      [ "tier0" ]
  in
  let _, _, link = List.hd nodes in
  let stores = ref [] in
  let apps =
    Harness.start_domains ~experiment:"remote" sys ~tiered_prefix:"tier_"
      ~backing:(fun name ->
        Harness.fleet_backing ~experiment:"remote" fleet
          ~client:(name ^ ".tier") ~spec:"tiered:cache-pages=24"
          ~on_store:(fun s -> stores := s :: !stores))
  in
  (* Clean first half, then chaos on the link, then a quiet drain so
     in-flight retransmissions settle before the books are read. *)
  let half = Time.ns (Time.to_ns duration / 2) in
  System.run ~until:half sys;
  Inject.arm (plan_for ~seed);
  System.run ~until:duration sys;
  Inject.disarm ();
  System.run ~until:(Time.add duration (Time.sec 2)) sys;
  let reports = Harness.domain_reports apps in
  let tally = Inject.tally () in
  { seed;
    duration;
    domains = reports;
    fleet = Tier.Fleet.stats fleet;
    store_totals = Tier.Fleet.store_totals !stores;
    node = List.hd (Tier.Fleet.health fleet);
    books_balanced = Tier.Fleet.books_balanced fleet;
    link_drops = tally.Inject.link_drops;
    link_delays = tally.Inject.link_delays;
    link_utilisation = Usnet.Link.utilisation link;
    bystander_violations = Harness.violations ~tiered:false reports;
    tiered_violations = Harness.violations ~tiered:true reports;
    deterministic = true;
    audit = Obs.Qos_audit.summarize () }

let to_json r =
  Json.obj
    [ ("seed", Json.int r.seed);
      ("duration_s", Json.fixed 0 (Time.to_sec r.duration));
      ("domains", Json.list (List.map Harness.domain_json r.domains));
      ("fleet", Harness.fleet_json r.fleet);
      ("stores", Harness.store_json r.store_totals);
      ("books_balanced", Json.bool r.books_balanced);
      ("remote", Harness.node_json r.node);
      ( "link",
        Json.obj
          [ ("drops", Json.int r.link_drops);
            ("delays", Json.int r.link_delays);
            ("utilisation", Json.fixed 3 r.link_utilisation) ] );
      ("bystander_violations", Json.int r.bystander_violations);
      ("tiered_violations", Json.int r.tiered_violations);
      ("deterministic", Json.bool r.deterministic) ]

(* Same-seed reproducibility is part of the verdict: the whole fleet —
   link chaos included — runs twice and the canonical reports must
   match byte-for-byte. *)
let run ?(seed = 42) ?(duration = Time.sec 30) () =
  let r1 = run_once ~seed ~duration in
  let r2 = run_once ~seed ~duration in
  let canon r = to_json { r with deterministic = true } in
  { r1 with deterministic = canon r1 = canon r2 }

(* The fleet counts the drops it answered; the injector counts the
   drops it dealt. Neither reads the other, so agreement is an
   independent check on the packet ledger. *)
let drops_agree r = r.fleet.Tier.Fleet.link_drops = r.link_drops

let ok r =
  r.bystander_violations = 0 && r.books_balanced && r.link_drops > 0
  && drops_agree r
  && r.store_totals.Tier.Fleet.st_fleet_hits > 0
  && r.store_totals.Tier.Fleet.st_demotes > 0
  && r.deterministic

let print r =
  Report.heading "Remote paging: a memory tier across the network";
  Printf.printf
    "seed %d, %.0f s (link chaos in the second half) + 2 s drain\n\n" r.seed
    (Time.to_sec r.duration);
  Harness.domain_table ~tiered_label:"tier" r.domains;
  print_newline ();
  let f = r.fleet in
  Harness.print_store_totals r.store_totals;
  Printf.printf
    "packets: %d dropped + %d unreachable = %d retransmits + %d timeouts; \
     injector dealt %d drops (%s)\n"
    f.Tier.Fleet.link_drops f.Tier.Fleet.unreachable f.Tier.Fleet.retransmits
    f.Tier.Fleet.frag_timeouts r.link_drops
    (if drops_agree r then "agrees" else "DISAGREES");
  Harness.print_fleet f ~balanced:r.books_balanced [ r.node ];
  Printf.printf "link utilisation %.2f\n" r.link_utilisation;
  Printf.printf "same-seed rerun: %s\n\n"
    (if r.deterministic then "byte-identical" else "DIVERGED");
  Report.audit_section "Remote-paging QoS audit" (Some r.audit);
  Printf.printf "bystander (disk-only) violations: %d\n"
    r.bystander_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — bystanders unperturbed, tier books balance, chaos \
        reproducible"
     else "VERDICT: FAILED")
