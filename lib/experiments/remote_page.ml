open Engine
open Core

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;
  store_totals : Tier.Fleet.store_stats;
  books_balanced : bool;
  remote_used : int;
  remote_capacity : int;
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

(* The tier: a one-node [Replicated 1] fleet — the RAM cache over one
   remote memory node on its own link, over the disk. *)
let one_node_fleet ~seed sys ~name ~capacity =
  let ((_, remote, link) as node) =
    Harness.remote_node sys ~params:Usnet.Net_params.fast_ethernet ~capacity
      name
  in
  let fleet =
    Tier.Fleet.create ~seed ~redundancy:(Tier.Fleet.Replicated 1)
      ~nodes:[ node ] (System.sim sys)
  in
  (fleet, remote, link)

let tiered_backing fleet ~client ~on_store =
  Harness.fleet_backing ~experiment:"remote" fleet ~client
    ~spec:"tiered:cache-pages=24" ~on_store

let run_once ~seed ~duration =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let fleet, remote, link =
    one_node_fleet ~seed sys ~name:"tier0" ~capacity:remote_capacity
  in
  let stores = ref [] in
  let apps =
    Harness.start_domains ~experiment:"remote" sys ~tiered_prefix:"tier_"
      ~backing:(fun name ->
        tiered_backing fleet ~client:(name ^ ".tier") ~on_store:(fun s ->
            stores := s :: !stores))
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
    store_totals = Harness.store_totals !stores;
    books_balanced = Tier.Fleet.books_balanced fleet;
    remote_used = Tier.Remote_node.used_pages remote;
    remote_capacity;
    link_drops = tally.Inject.link_drops;
    link_delays = tally.Inject.link_delays;
    link_utilisation = Usnet.Link.utilisation link;
    bystander_violations = Harness.violations ~tiered:false reports;
    tiered_violations = Harness.violations ~tiered:true reports;
    deterministic = true;
    audit = Obs.Qos_audit.summarize () }

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.duration));
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": [%s],\n"
       (String.concat ", " (List.map Harness.domain_json r.domains)));
  let f = r.fleet in
  Buffer.add_string b
    (Printf.sprintf
       "  \"fleet\": {\"stores\": %d, \"acks\": %d, \"remote_fulls\": %d, \
        \"replica_timeouts\": %d, \"lost_primaries\": %d, \
        \"disk_fallbacks\": %d, \"link_drops\": %d, \"link_delays\": %d, \
        \"unreachable\": %d, \"retransmits\": %d, \"frag_timeouts\": %d, \
        \"quarantines\": %d, \"readmissions\": %d, \"repair_rounds\": %d},\n"
       f.Tier.Fleet.stores f.Tier.Fleet.acks f.Tier.Fleet.remote_fulls
       f.Tier.Fleet.replica_timeouts f.Tier.Fleet.lost_primaries
       f.Tier.Fleet.disk_fallbacks f.Tier.Fleet.link_drops
       f.Tier.Fleet.link_delays f.Tier.Fleet.unreachable
       f.Tier.Fleet.retransmits f.Tier.Fleet.frag_timeouts
       f.Tier.Fleet.quarantines f.Tier.Fleet.readmissions
       f.Tier.Fleet.repair_rounds);
  Buffer.add_string b
    (Printf.sprintf "  \"stores\": %s,\n" (Harness.store_json r.store_totals));
  Buffer.add_string b
    (Printf.sprintf "  \"books_balanced\": %b,\n" r.books_balanced);
  Buffer.add_string b
    (Printf.sprintf "  \"remote\": {\"used\": %d, \"capacity\": %d},\n"
       r.remote_used r.remote_capacity);
  Buffer.add_string b
    (Printf.sprintf
       "  \"link\": {\"drops\": %d, \"delays\": %d, \"utilisation\": %.3f},\n"
       r.link_drops r.link_delays r.link_utilisation);
  Buffer.add_string b
    (Printf.sprintf "  \"bystander_violations\": %d,\n"
       r.bystander_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"tiered_violations\": %d,\n" r.tiered_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"deterministic\": %b\n" r.deterministic);
  Buffer.add_string b "}";
  Buffer.contents b

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
  Printf.printf
    "primaries: %d lost = %d failovers + %d rebuilds + %d disk fallbacks; \
     %d remote-full degrades (%s)\n"
    f.Tier.Fleet.lost_primaries f.Tier.Fleet.failovers f.Tier.Fleet.rebuilds
    f.Tier.Fleet.disk_fallbacks f.Tier.Fleet.remote_fulls
    (if r.books_balanced then "books balance" else "UNBALANCED BOOKS");
  Printf.printf "remote node: %d/%d pages; link utilisation %.2f\n"
    r.remote_used r.remote_capacity r.link_utilisation;
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

(* ------------------------------------------------------------------ *)
(* Benchmark: tiered vs disk-only, per pattern, fault-free.            *)

type bench_cell = {
  bc_pattern : string;
  bc_tiered : bool;
  bc_mbit : float;
  bc_accesses : int;
  bc_fault_mean_us : float;
  bc_fault_p95_us : float;
  bc_cache_hits : int;
  bc_remote_hits : int;
  bc_remote_misses : int;
}

type bench_result = {
  b_seed : int;
  b_duration : Time.span;
  b_cells : bench_cell list;
  b_hot_speedup : float;
  b_hot_tiered_beats_disk : bool;
}

let bench_cell ~seed ~duration ~pat ~pattern ~tiered =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let store = ref None in
  let backing =
    if not tiered then None
    else begin
      let fleet, _, _ =
        one_node_fleet ~seed sys ~name:"bench0" ~capacity:128
      in
      Some
        (tiered_backing fleet ~client:"bench.tier" ~on_store:(fun s ->
             store := Some s))
    end
  in
  let name = "bench" in
  let app =
    Harness.start_app ~experiment:"remote" sys ~name ~pattern ?backing ()
  in
  System.run ~until:duration sys;
  let mean, p95 = Harness.fault_hist name in
  let st = Harness.store_totals (Option.to_list !store) in
  { bc_pattern = pat;
    bc_tiered = tiered;
    bc_mbit = Workload.Paging_app.sustained_mbit app;
    bc_accesses = Workload.Paging_app.measured_accesses app;
    bc_fault_mean_us = mean;
    bc_fault_p95_us = p95;
    bc_cache_hits = st.Tier.Fleet.st_cache_hits;
    bc_remote_hits = st.Tier.Fleet.st_fleet_hits;
    bc_remote_misses = st.Tier.Fleet.st_fleet_misses }

let bench ?(seed = 42) ?(duration = Time.sec 30) () =
  let cells =
    List.concat_map
      (fun (pat, pattern) ->
        [ bench_cell ~seed ~duration ~pat ~pattern ~tiered:false;
          bench_cell ~seed ~duration ~pat ~pattern ~tiered:true ])
      (Harness.patterns ~experiment:"remote")
  in
  let find p tiered =
    List.find (fun c -> c.bc_pattern = p && c.bc_tiered = tiered) cells
  in
  let hot_disk = find "hot" false and hot_tier = find "hot" true in
  let speedup =
    if
      Float.is_nan hot_disk.bc_fault_mean_us
      || Float.is_nan hot_tier.bc_fault_mean_us
      || hot_tier.bc_fault_mean_us <= 0.
    then nan
    else hot_disk.bc_fault_mean_us /. hot_tier.bc_fault_mean_us
  in
  { b_seed = seed;
    b_duration = duration;
    b_cells = cells;
    b_hot_speedup = speedup;
    b_hot_tiered_beats_disk = (not (Float.is_nan speedup)) && speedup > 1. }

let bench_print r =
  Report.heading "Remote paging benchmark: tiered vs disk-only";
  Printf.printf "seed %d, %.0f s per cell, fault-free\n\n" r.b_seed
    (Time.to_sec r.b_duration);
  Report.table
    ~header:
      [ "pattern"; "backing"; "Mbit/s"; "accesses"; "fault us"; "p95 us";
        "cache/remote/disk" ]
    (List.map
       (fun c ->
         [ c.bc_pattern; (if c.bc_tiered then "tier" else "disk");
           Harness.mbit_s c.bc_mbit; string_of_int c.bc_accesses;
           Harness.us c.bc_fault_mean_us; Harness.us c.bc_fault_p95_us;
           Printf.sprintf "%d/%d/%d" c.bc_cache_hits c.bc_remote_hits
             c.bc_remote_misses ])
       r.b_cells);
  print_newline ();
  Printf.printf "hotspot fault-latency speedup (disk/tier): %s — tiered %s\n"
    (if Float.is_nan r.b_hot_speedup then "-"
     else Printf.sprintf "%.2fx" r.b_hot_speedup)
    (if r.b_hot_tiered_beats_disk then "beats disk-only"
     else "does NOT beat disk-only")

let bench_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.b_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.b_duration));
  let cell c =
    Printf.sprintf
      "{\"pattern\": %S, \"tiered\": %b, \"mbit_s\": %s, \"accesses\": %d, \
       \"fault_mean_us\": %s, \"fault_p95_us\": %s, \"cache_hits\": %d, \
       \"remote_hits\": %d, \"remote_misses\": %d}"
      c.bc_pattern c.bc_tiered
      (if Float.is_nan c.bc_mbit then "null"
       else Printf.sprintf "%.3f" c.bc_mbit)
      c.bc_accesses
      (Harness.json_f1 c.bc_fault_mean_us)
      (Harness.json_f1 c.bc_fault_p95_us)
      c.bc_cache_hits c.bc_remote_hits c.bc_remote_misses
  in
  Buffer.add_string b
    (Printf.sprintf "  \"cells\": [%s],\n"
       (String.concat ", " (List.map cell r.b_cells)));
  Buffer.add_string b
    (Printf.sprintf "  \"hot_speedup\": %s,\n"
       (if Float.is_nan r.b_hot_speedup then "null"
        else Printf.sprintf "%.3f" r.b_hot_speedup));
  Buffer.add_string b
    (Printf.sprintf "  \"hot_tiered_beats_disk\": %b\n"
       r.b_hot_tiered_beats_disk);
  Buffer.add_string b "}";
  Buffer.contents b
