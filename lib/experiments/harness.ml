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
    ?(usd_laxity = true) ?(main_memory_mb = 64) ?(seed = 42) () =
  let config =
    { System.default_config with
      page_table; usd_rollover; usd_laxity; main_memory_mb; seed }
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

let remote_node sys ~params ~capacity name =
  let link = Usnet.Link.create ~name ~params (System.sim sys) in
  (name, Tier.Remote_node.create ~capacity_pages:capacity (), link)

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

let store_totals stores =
  List.fold_left
    (fun a s ->
      let b = Tier.Fleet.store_stats s in
      let open Tier.Fleet in
      { st_cache_hits = a.st_cache_hits + b.st_cache_hits;
        st_fleet_hits = a.st_fleet_hits + b.st_fleet_hits;
        st_fleet_misses = a.st_fleet_misses + b.st_fleet_misses;
        st_promotes = a.st_promotes + b.st_promotes;
        st_demotes = a.st_demotes + b.st_demotes;
        st_write_fallbacks = a.st_write_fallbacks + b.st_write_fallbacks;
        st_clean_skips = a.st_clean_skips + b.st_clean_skips;
        st_lost_slots = a.st_lost_slots + b.st_lost_slots })
    { Tier.Fleet.st_cache_hits = 0; st_fleet_hits = 0; st_fleet_misses = 0;
      st_promotes = 0; st_demotes = 0; st_write_fallbacks = 0;
      st_clean_skips = 0; st_lost_slots = 0 }
    stores

let mbit_s f = if Float.is_nan f then "warming" else Report.f2 f
let us f = if Float.is_nan f then "-" else Printf.sprintf "%.0f" f
let json_f1 f = if Float.is_nan f then "null" else Printf.sprintf "%.1f" f

let domain_json d =
  Printf.sprintf
    "{\"name\": %S, \"pattern\": %S, \"tiered\": %b, \"mbit_s\": %s, \
     \"accesses\": %d, \"fault_mean_us\": %s, \"fault_p95_us\": %s, \
     \"violations\": %d}"
    d.dr_name d.dr_pattern d.dr_tiered
    (if Float.is_nan d.dr_mbit then "null" else Printf.sprintf "%.3f" d.dr_mbit)
    d.dr_accesses (json_f1 d.dr_fault_mean_us) (json_f1 d.dr_fault_p95_us)
    d.dr_violations

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
  Printf.sprintf
    "{\"cache_hits\": %d, \"fleet_hits\": %d, \"fleet_misses\": %d, \
     \"promotes\": %d, \"demotes\": %d, \"write_fallbacks\": %d, \
     \"clean_skips\": %d, \"lost_slots\": %d}"
    st.st_cache_hits st.st_fleet_hits st.st_fleet_misses st.st_promotes
    st.st_demotes st.st_write_fallbacks st.st_clean_skips st.st_lost_slots

let print_store_totals st =
  let open Tier.Fleet in
  Printf.printf
    "reads: %d cache hits, %d fleet hits, %d never-placed (disk); %d \
     demotes, %d write fallbacks, %d clean skips\n"
    st.st_cache_hits st.st_fleet_hits st.st_fleet_misses st.st_demotes
    st.st_write_fallbacks st.st_clean_skips

type hotspot_run = {
  hr_accesses : int;
  hr_mean_us : float;
  hr_half2_mean_us : float;
  hr_fleet : Tier.Fleet.t option;
  hr_store : Tier.Fleet.store option;
}

(* The histogram is cumulative, so the second-half window is recovered
   from (count, mean) snapshots at T/2 and T:
   mean2h = (m2 c2 - m1 c1) / (c2 - c1). The wipe is applied directly,
   between the two System.run legs, so the window boundary and the
   fault coincide. *)
let hotspot_run ~experiment ?(context = []) ~seed ~duration ?fleet ~wipe () =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let fleet = Option.map (fun build -> build sys) fleet in
  let store = ref None in
  let backing =
    Option.map
      (fun (fl, _) ->
        fleet_backing ~experiment ~context fl ~client:"bench.tier"
          ~spec:"fleet:cache-pages=24" ~on_store:(fun s -> store := Some s))
      fleet
  in
  let name = "bench" in
  let app =
    start_app ~experiment sys ~name ~pattern:Workload.Paging_app.Hotspot
      ?backing ()
  in
  let half = Time.ns (Time.to_ns duration / 2) in
  System.run ~until:half sys;
  let snap () =
    match Obs.Metrics.hist_view ~label:name "fault.latency_us" with
    | Some v -> (v.Obs.Metrics.hv_count, v.Obs.Metrics.hv_mean)
    | None -> (0, nan)
  in
  let c1, m1 = snap () in
  (match fleet with
  | Some (_, victim) when wipe -> Tier.Remote_node.wipe victim
  | _ -> ());
  System.run ~until:duration sys;
  let c2, m2 = snap () in
  { hr_accesses = Workload.Paging_app.measured_accesses app;
    hr_mean_us = m2;
    hr_half2_mean_us =
      (if c2 > c1 then
         ((m2 *. float_of_int c2) -. (m1 *. float_of_int c1))
         /. float_of_int (c2 - c1)
       else nan);
    hr_fleet = Option.map fst fleet;
    hr_store = !store }
