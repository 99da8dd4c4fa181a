open Engine
open Core

let run_in_sim sys f =
  let result = ref None in
  ignore
    (Proc.spawn ~name:"experiment" (System.sim sys) (fun () ->
         result := Some (f ())));
  let fuel = ref 200_000_000 in
  while !result = None && !fuel > 0 do
    if Sim.step (System.sim sys) then decr fuel else fuel := 0
  done;
  match !result with
  | Some r -> r
  (* Harness failwiths: fuel exhaustion or a refused bench-domain
     admission mean the experiment never produced a result to
     qualify — abort loudly rather than fabricate one. *)
  | None -> failwith "run_in_sim: experiment did not complete"

let fresh_system ?(page_table = `Linear) ?(usd_rollover = true)
    ?(main_memory_mb = 64) ?(seed = 42) () =
  let config =
    { System.default_config with
      page_table; usd_rollover; main_memory_mb; seed }
  in
  System.create ~config ()

let bench_domain sys ?(guarantee = 256) ?(optimistic = 0) ~name () =
  match
    System.add_domain sys ~name ~cpu_period:(Time.ms 10)
      ~cpu_slice:(Time.ms 9) ~guarantee ~optimistic ()
  with
  | Ok d -> d
  | Error e -> failwith ("bench_domain: " ^ System.error_message e)

(* One funnel for experiment verdict escapes: the experiment name and
   any structured context go to stderr (the exception message often
   surfaces far from the failing experiment, e.g. under alcotest),
   then the legacy message raises unchanged so callers and tests
   matching on [Failure msg] keep working. *)
let fail_verdict ~experiment ?(context = []) msg =
  Printf.eprintf "[experiment %s] FAILED: %s\n" experiment msg;
  List.iter
    (fun (k, v) -> Printf.eprintf "[experiment %s]   %s = %s\n" experiment k v)
    context;
  flush stderr;
  failwith msg

let pattern ~experiment name =
  match Workload.Paging_app.pattern_of_string name with
  | Ok p -> p
  | Error e -> fail_verdict ~experiment (Registry.error_message e)

let backing ~experiment spec ctx =
  match Tier.Backing.resolve spec with
  | Error e -> fail_verdict ~experiment (Registry.error_message e)
  | Ok factory -> (
      fun swap ->
        match factory ctx swap with
        | Ok b -> b
        | Error msg -> fail_verdict ~experiment msg)

let mean_span spans =
  match spans with
  | [] -> nan
  | _ ->
    let total = List.fold_left ( + ) 0 spans in
    float_of_int total /. float_of_int (List.length spans) /. 1e3

let violations_for ~names ~ids =
  List.length
    (List.filter
       (fun (_, v) ->
         match v with
         | Obs.Qos_audit.Cpu_undersupply { dom; _ } -> List.mem dom names
         | Obs.Qos_audit.Usd_undersupply { stream; _ } ->
           List.exists
             (fun n ->
               String.length stream >= String.length n
               && String.sub stream 0 (String.length n) = n)
             names
         | Obs.Qos_audit.Mem_overcommit _ -> false
         | Obs.Qos_audit.Revocation_overdue { dom; _ }
         | Obs.Qos_audit.Guarantee_starved { dom } -> List.mem dom ids)
       (Obs.Qos_audit.events ()))

(* ------------------------------------------------------------------ *)
(* The remote-tier experiments: three disk-only bystanders beside three
   tiered domains, one of each per access pattern.                     *)

type domain_report = {
  dr_name : string;
  dr_pattern : string;
  dr_tiered : bool;
  dr_mbit : float;
  dr_accesses : int;
  dr_fault_mean_us : float;
  dr_fault_p95_us : float;
  dr_violations : int;
}

let patterns ~experiment =
  List.map (fun n -> (n, pattern ~experiment n)) [ "seq"; "rand"; "hot" ]

let fault_hist name =
  match Obs.Metrics.hist_view ~label:name "fault.latency_us" with
  | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.95)
  | None -> (nan, nan)

let start_app ~experiment sys ~name ~pattern ?backing () =
  (* six apps share the disk: 6 x 35/250 = 0.84 leaves admission room *)
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 35) () in
  match
    Workload.Paging_app.start sys ~name ~mode:Workload.Paging_app.Paging_in
      ~qos ~vm_bytes:(1024 * 1024) ~phys_frames:8
      ~swap_bytes:(4 * 1024 * 1024) ?backing ~pattern ()
  with
  | Ok a -> a
  | Error e ->
      fail_verdict ~experiment ~context:[ ("app", name) ]
        (Printf.sprintf "%s: %s: %s" experiment name e)

let start_domains ~experiment sys ~tiered_prefix ~backing =
  let start prefix backing =
    List.map
      (fun (pat, pattern) ->
        let name = prefix ^ pat in
        let backing = Option.map (fun f -> f name) backing in
        (name, pat, Option.is_some backing,
         start_app ~experiment sys ~name ~pattern ?backing ()))
      (patterns ~experiment)
  in
  let disk = start "disk_" None in
  disk @ start tiered_prefix (Some backing)

let fleet sys ~seed ~params ~capacity ?redundancy ?(standby = [])
    ?repair_period ?repair_budget ?repair names =
  let node name =
    let link = Usnet.Link.create ~name ~params (System.sim sys) in
    (name, Tier.Remote_node.create ~capacity_pages:capacity (), link)
  in
  let nodes = List.map node names in
  ( Tier.Fleet.create ~seed ?redundancy ~standby:(List.map node standby)
      ?repair_period ?repair_budget ?repair ~nodes (System.sim sys),
    nodes )

let fleet_backing ~experiment ?(context = []) fleet ~client ~spec ~on_store =
  let clients =
    match
      Tier.Fleet.admit_clients fleet ~name:client ~period:(Time.ms 20)
        ~slice:(Time.ms 5) ~extra:true ~laxity:(Time.of_ms_float 2.0) ()
    with
    | Ok cs -> cs
    | Error e ->
        fail_verdict ~experiment ~context
          (experiment ^ ": " ^ Usnet.Link.admit_error_message e)
  in
  backing ~experiment spec
    [ Tier.Fleet.Fleet_tier
        { fc_fleet = fleet; fc_clients = clients; fc_on_store = on_store } ]

let domain_reports apps =
  List.map
    (fun (name, pat, tiered, app) ->
      let mean, p95 = fault_hist name in
      { dr_name = name;
        dr_pattern = pat;
        dr_tiered = tiered;
        dr_mbit = Workload.Paging_app.sustained_mbit app;
        dr_accesses = Workload.Paging_app.measured_accesses app;
        dr_fault_mean_us = mean;
        dr_fault_p95_us = p95;
        dr_violations =
          violations_for ~names:[ name ]
            ~ids:[ Domains.id (Workload.Paging_app.domain app).System.dom ] })
    apps

let violations ~tiered reports =
  List.fold_left
    (fun n r -> if r.dr_tiered = tiered then n + r.dr_violations else n)
    0 reports

let mbit_s f = if Float.is_nan f then "warming" else Report.f2 f
let us f = if Float.is_nan f then "-" else Printf.sprintf "%.0f" f

let domain_json d =
  Json.obj
    [ ("name", Json.string d.dr_name); ("pattern", Json.string d.dr_pattern);
      ("tiered", Json.bool d.dr_tiered); ("mbit_s", Json.fixed 3 d.dr_mbit);
      ("accesses", Json.int d.dr_accesses);
      ("fault_mean_us", Json.fixed 1 d.dr_fault_mean_us);
      ("fault_p95_us", Json.fixed 1 d.dr_fault_p95_us);
      ("violations", Json.int d.dr_violations) ]

let domain_table ~tiered_label reports =
  Report.table
    ~header:
      [ "domain"; "pattern"; "backing"; "Mbit/s"; "accesses"; "fault us";
        "p95 us"; "violations" ]
    (List.map
       (fun d ->
         [ d.dr_name; d.dr_pattern;
           (if d.dr_tiered then tiered_label else "disk");
           mbit_s d.dr_mbit; string_of_int d.dr_accesses;
           us d.dr_fault_mean_us; us d.dr_fault_p95_us;
           string_of_int d.dr_violations ])
       reports)

let store_json st =
  let open Tier.Fleet in
  Json.ints
    [ ("cache_hits", st.st_cache_hits); ("fleet_hits", st.st_fleet_hits);
      ("fleet_misses", st.st_fleet_misses); ("promotes", st.st_promotes);
      ("demotes", st.st_demotes); ("write_fallbacks", st.st_write_fallbacks);
      ("clean_skips", st.st_clean_skips); ("lost_slots", st.st_lost_slots) ]

let print_store_totals st =
  let open Tier.Fleet in
  Printf.printf
    "reads: %d cache hits, %d fleet hits, %d never-placed (disk); %d \
     demotes, %d write fallbacks, %d clean skips\n"
    st.st_cache_hits st.st_fleet_hits st.st_fleet_misses st.st_demotes
    st.st_write_fallbacks st.st_clean_skips

(* The fleet section every remote-tier report shares: all the fleet's
   counters, one node shape, and one printer for the placement, ledger,
   health and node lines. *)

let fleet_json f =
  let open Tier.Fleet in
  Json.ints
    [ ("stores", f.stores); ("acks", f.acks);
      ("replica_skips", f.replica_skips);
      ("replica_timeouts", f.replica_timeouts);
      ("remote_fulls", f.remote_fulls); ("lost_shards", f.lost_shards);
      ("rebuilds", f.rebuilds); ("disk_fallbacks", f.disk_fallbacks);
      ("degraded_reads", f.degraded_reads);
      ("reconstructions", f.reconstructions);
      ("corrupt_shards", f.corrupt_shards); ("migrations", f.migrations);
      ("node_joins", f.node_joins); ("node_retires", f.node_retires);
      ("retransmits", f.retransmits); ("link_drops", f.link_drops);
      ("link_delays", f.link_delays); ("unreachable", f.unreachable);
      ("frag_timeouts", f.frag_timeouts); ("quarantines", f.quarantines);
      ("readmissions", f.readmissions); ("probes", f.probes);
      ("probe_failures", f.probe_failures);
      ("wipes_applied", f.wipes_applied); ("repair_rounds", f.repair_rounds) ]

let node_json h =
  let open Tier.Fleet in
  Json.obj
    [ ("name", Json.string h.nh_name); ("member", Json.bool h.nh_member);
      ("used", Json.int h.nh_used); ("capacity", Json.int h.nh_capacity);
      ("quarantined", Json.bool h.nh_quarantined);
      ("streak", Json.int h.nh_streak);
      ("quarantines", Json.int h.nh_quarantines);
      ("readmissions", Json.int h.nh_readmissions);
      ("stores", Json.int h.nh_stores); ("serves", Json.int h.nh_serves) ]

let print_fleet f ~balanced nodes =
  let open Tier.Fleet in
  let verdict ok = if ok then "balanced" else "UNBALANCED" in
  Printf.printf
    "placement: %d stores = %d acks (%s); %d skipped, %d timed out, %d \
     remote-full\n"
    f.stores f.acks
    (verdict (f.stores = f.acks))
    f.replica_skips f.replica_timeouts f.remote_fulls;
  Printf.printf
    "shards: %d lost = %d reconstructions + %d rebuilds + %d disk fallbacks \
     (%s); %d degraded reads\n"
    f.lost_shards f.reconstructions f.rebuilds f.disk_fallbacks
    (verdict balanced) f.degraded_reads;
  Printf.printf
    "health: %d wipes, %d corrupt shards, %d joins, %d retires, %d \
     migrations, %d quarantines, %d probes, %d readmissions, %d repair \
     rounds\n"
    f.wipes_applied f.corrupt_shards f.node_joins f.node_retires f.migrations
    f.quarantines f.probes f.readmissions f.repair_rounds;
  List.iter
    (fun h ->
      Printf.printf
        "  node %s: %s, %d/%d entries, %d stored, %d served, %d \
         quarantines, %d readmissions%s\n"
        h.nh_name
        (if h.nh_member then "member" else "standby")
        h.nh_used h.nh_capacity h.nh_stores h.nh_serves h.nh_quarantines
        h.nh_readmissions
        (if h.nh_quarantined then " [quarantined]" else ""))
    nodes

(* ------------------------------------------------------------------ *)
(* The backing matrix: one domain alone in a fresh system per cell,
   every backing this repo compares side by side.                      *)

type matrix_cell = {
  mc_name : string;
  mc_pattern : string;
  mc_mbit : float;
  mc_accesses : int;
  mc_fault_mean_us : float;
  mc_fault_p95_us : float;
  mc_half2_mean_us : float;
  mc_store : Tier.Fleet.store_stats;
  mc_fleet : Tier.Fleet.stats option;
  mc_nodes : Tier.Fleet.node_health list;
  mc_overhead : float;
}

type matrix = {
  m_seed : int;
  m_duration : Time.span;
  m_cells : matrix_cell list;
}

type matrix_backing = Disk | Tier | Fleet of Tier.Fleet.redundancy

let matrix_cells =
  let r2 = Fleet (Tier.Fleet.Replicated 2)
  and ec = Fleet (Tier.Fleet.Erasure { k = 4; m = 2 }) in
  [ ("disk_seq", Disk, "seq", false); ("disk_rand", Disk, "rand", false);
    ("disk_hot", Disk, "hot", false); ("tier_seq", Tier, "seq", false);
    ("tier_rand", Tier, "rand", false); ("tier_hot", Tier, "hot", false);
    ("replicated", r2, "hot", false); ("replicated_wipe", r2, "hot", true);
    ("erasure", ec, "hot", false); ("erasure_wipe", ec, "hot", true) ]

(* Every cell runs in two legs split at T/2. A wipe cell's n0 loses its
   contents between them, with repair off, so every post-wipe read of
   a page n0 held takes the degraded path. The latency histogram is
   cumulative, so the second-half mean comes from (count, sum)
   snapshots at T/2 and T. *)
let run_matrix_cell ~seed ~duration (name, backing, pat, wipe) =
  let experiment = "backing" in
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let built =
    match backing with
    | Disk -> None
    | Tier ->
      Some
        ( "tiered:cache-pages=24",
          fleet sys ~seed ~params:Usnet.Net_params.fast_ethernet
            ~capacity:128 ~redundancy:(Tier.Fleet.Replicated 1) [ "bench0" ] )
    | Fleet redundancy ->
      Some
        ( "fleet:cache-pages=24",
          fleet sys ~seed ~params:Usnet.Net_params.gigabit ~capacity:420
            ~redundancy ~repair:(not wipe)
            (List.init 6 (Printf.sprintf "n%d")) )
  in
  let store = ref None in
  let backing =
    Option.map
      (fun (spec, (fl, _)) ->
        fleet_backing ~experiment ~context:[ ("cell", name) ] fl
          ~client:"bench.tier" ~spec ~on_store:(fun s -> store := Some s))
      built
  in
  let app =
    start_app ~experiment sys ~name:"bench" ~pattern:(pattern ~experiment pat)
      ?backing ()
  in
  let snap () =
    match Obs.Metrics.hist_view ~label:"bench" "fault.latency_us" with
    | Some v ->
      let n = v.Obs.Metrics.hv_count in
      (n, v.Obs.Metrics.hv_mean *. float_of_int n)
    | None -> (0, 0.)
  in
  System.run ~until:(Time.ns (Time.to_ns duration / 2)) sys;
  let c1, s1 = snap () in
  (match built with
  | Some (_, (_, (_, n0, _) :: _)) when wipe -> Tier.Remote_node.wipe n0
  | _ -> ());
  System.run ~until:duration sys;
  let c2, s2 = snap () in
  let mean, p95 = fault_hist "bench" in
  let fl = Option.map (fun (_, (fl, _)) -> fl) built in
  let of_fleet f default = Option.fold ~none:default ~some:f fl in
  { mc_name = name;
    mc_pattern = pat;
    mc_mbit = Workload.Paging_app.sustained_mbit app;
    mc_accesses = Workload.Paging_app.measured_accesses app;
    mc_fault_mean_us = mean;
    mc_fault_p95_us = p95;
    mc_half2_mean_us =
      (if c2 > c1 then (s2 -. s1) /. float_of_int (c2 - c1) else nan);
    mc_store = Tier.Fleet.store_totals (Option.to_list !store);
    mc_fleet = Option.map Tier.Fleet.stats fl;
    mc_nodes = of_fleet Tier.Fleet.health [];
    mc_overhead = of_fleet Tier.Fleet.storage_overhead nan }

let run_matrix ?(seed = 42) ?(duration = Time.sec 30) () =
  { m_seed = seed;
    m_duration = duration;
    m_cells = List.map (run_matrix_cell ~seed ~duration) matrix_cells }

let matrix_cell m name = List.find (fun c -> c.mc_name = name) m.m_cells
let fleet_count f c = Option.fold ~none:0 ~some:f c.mc_fleet

let half2_ratio m a b =
  (matrix_cell m a).mc_half2_mean_us /. (matrix_cell m b).mc_half2_mean_us

let hot_speedup m =
  (matrix_cell m "disk_hot").mc_fault_mean_us
  /. (matrix_cell m "tier_hot").mc_fault_mean_us

(* A comparison with a [nan] side is false, so a cell that never
   faulted in the window fails the verdict. *)
let matrix_ok m =
  let cell = matrix_cell m in
  let disk = cell "disk_hot" in
  let survives healthy wiped =
    let w = cell wiped in
    w.mc_half2_mean_us <= 2.0 *. (cell healthy).mc_half2_mean_us
    && disk.mc_half2_mean_us >= 5.0 *. w.mc_half2_mean_us
    && fleet_count (fun s -> s.Tier.Fleet.reconstructions) w > 0
  in
  (cell "tier_hot").mc_fault_mean_us < disk.mc_fault_mean_us
  && survives "replicated" "replicated_wipe"
  && survives "erasure" "erasure_wipe"
  && (cell "erasure").mc_overhead <= 1.55
  && (cell "replicated").mc_overhead >= 1.9

let print_matrix m =
  let open Tier.Fleet in
  Report.heading "Backing matrix: one domain per backing";
  Printf.printf
    "seed %d, %.0f s per cell, fault-free; a wipe cell loses n0 at T/2 with \
     repair off\n\n"
    m.m_seed (Time.to_sec m.m_duration);
  Report.table
    ~header:
      [ "cell"; "Mbit/s"; "accesses"; "fault us"; "p95 us"; "2nd-half us";
        "cache/fleet/disk"; "degraded"; "overhead" ]
    (List.map
       (fun c ->
         let st = c.mc_store in
         [ c.mc_name; mbit_s c.mc_mbit; string_of_int c.mc_accesses;
           us c.mc_fault_mean_us; us c.mc_fault_p95_us;
           us c.mc_half2_mean_us;
           Printf.sprintf "%d/%d/%d" st.st_cache_hits st.st_fleet_hits
             st.st_fleet_misses;
           string_of_int (fleet_count (fun s -> s.degraded_reads) c);
           (if Float.is_nan c.mc_overhead then "-"
            else Printf.sprintf "%.2fx" c.mc_overhead) ])
       m.m_cells);
  print_newline ();
  let cell = matrix_cell m in
  let half2 n = us (cell n).mc_half2_mean_us in
  Printf.printf
    "hotspot: tier %s us vs disk %s us (%.2fx); erasure reads at %.2fx the \
     replicated read, %.2fx storage instead of %.2fx\n"
    (us (cell "tier_hot").mc_fault_mean_us)
    (us (cell "disk_hot").mc_fault_mean_us)
    (hot_speedup m)
    (half2_ratio m "erasure" "replicated")
    (cell "erasure").mc_overhead (cell "replicated").mc_overhead;
  Printf.printf
    "second half, node wiped: replicated %s us (%.2fx healthy), erasure %s \
     us (%.2fx healthy); disk %s us\n"
    (half2 "replicated_wipe")
    (half2_ratio m "replicated_wipe" "replicated")
    (half2 "erasure_wipe")
    (half2_ratio m "erasure_wipe" "erasure")
    (half2 "disk_hot");
  print_endline
    (if matrix_ok m then
       "VERDICT: ok — the tier beats the disk, a lost node costs at most 2x \
        and stays 5x clear of the disk, parity at 1.5x storage instead of 2x"
     else "VERDICT: FAILED")

let matrix_cell_json c =
  let open Tier.Fleet in
  let count f = Json.int (fleet_count f c) in
  Json.obj
    [ ("cell", Json.string c.mc_name); ("pattern", Json.string c.mc_pattern);
      ("mbit_s", Json.fixed 3 c.mc_mbit);
      ("accesses", Json.int c.mc_accesses);
      ("fault_mean_us", Json.fixed 1 c.mc_fault_mean_us);
      ("fault_p95_us", Json.fixed 1 c.mc_fault_p95_us);
      ("half2_mean_us", Json.fixed 1 c.mc_half2_mean_us);
      ("cache_hits", Json.int c.mc_store.st_cache_hits);
      ("fleet_hits", Json.int c.mc_store.st_fleet_hits);
      ("fleet_misses", Json.int c.mc_store.st_fleet_misses);
      ("degraded_reads", count (fun s -> s.degraded_reads));
      ("reconstructions", count (fun s -> s.reconstructions));
      ("rebuilds", count (fun s -> s.rebuilds));
      ("storage_overhead", Json.fixed 3 c.mc_overhead);
      ("nodes", Json.list (List.map node_json c.mc_nodes)) ]

let matrix_json m =
  Json.obj
    [ ("seed", Json.int m.m_seed);
      ("duration_s", Json.fixed 0 (Time.to_sec m.m_duration));
      ("cells", Json.list (List.map matrix_cell_json m.m_cells));
      ("hot_speedup", Json.fixed 3 (hot_speedup m));
      ("parity_price", Json.fixed 3 (half2_ratio m "erasure" "replicated"));
      ( "replicated_degradation",
        Json.fixed 3 (half2_ratio m "replicated_wipe" "replicated") );
      ( "erasure_degradation",
        Json.fixed 3 (half2_ratio m "erasure_wipe" "erasure") );
      ("ok", Json.bool (matrix_ok m)) ]
