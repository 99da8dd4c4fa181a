open Engine
open Hw
open Core

type domain_report = {
  dr_name : string;
  dr_mbit : float;
  dr_accesses : int;
  dr_violations : int;
}

type result = {
  seed : int;
  duration : Time.span;
  victim : domain_report;
  victim_info : Sd_paged.info;
  cleans : domain_report list;
  tally : Inject.tally;
  accounted : bool;
  injected_by_class : (string * int) list;
  doomed_killed : bool;
  doomed_frames_reclaimed : bool;
  intrusive_revocations : int;
  clean_violations : int;
  audit : Obs.Qos_audit.summary;
}

let page_blocks = Addr.page_size / 512

(* The victim's injection plan, scoped to its swap extent
   [(first, nblocks)]. Four permanently-bad page slots on the write
   path (enough spare slots are reserved to remap them all — losing a
   page kills the victim, which the doomed domain and the unit tests
   already demonstrate), plus a marginal (transient) range, random
   media errors and latency spikes across the whole extent, USD
   stalls, fault-channel drop/delay, and periodic frame-pressure
   bursts for the gremlin. *)
let plan_specs ~first ~nblocks =
  let bad_page slot len =
    Printf.sprintf "bad-blok:first=%d,len=%d,op=write"
      (first + (slot * page_blocks))
      (len * page_blocks)
  in
  [ bad_page 3 1; bad_page 17 1; bad_page 40 2;
    Printf.sprintf "bad-blok:first=%d,len=%d,transient=2"
      (first + (60 * page_blocks))
      (4 * page_blocks);
    Printf.sprintf
      "region:first=%d,len=%d,read=0.02,write=0.02,spike=0.02,spike-ms=20"
      first nblocks;
    "stall:site=victim.swap,rate=0.02,ms=30";
    "stall:site=doomed.revoke,rate=1.0,ms=250";
    "chan:name=victim.fault,drop=0.05,delay=0.05,delay-ms=2";
    "pressure:period-ms=500,hold-ms=150" ]

let plan_for ~seed ~first ~nblocks =
  match Inject.plan_of_specs ~seed (plan_specs ~first ~nblocks) with
  | Ok plan -> plan
  | Error e -> Harness.fail_verdict ~experiment:"chaos" (Registry.error_message e)

let start_app sys ~name ?policy ?spare_pages ?(optimistic = 0) () =
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) () in
  match
    Workload.Paging_app.start sys ~name ~mode:Workload.Paging_app.Paging_in
      ~qos ~vm_bytes:(1024 * 1024) ~phys_frames:8 ~optimistic
      ~swap_bytes:(4 * 1024 * 1024) ?policy ?spare_pages ()
  with
  | Ok a -> a
  (* Setup failwiths throughout: an experiment that cannot build its
     world has no verdict to report. Spec resolution is typed and
     funnelled through Harness.fail_verdict / plan_for. *)
  | Error e -> failwith (Printf.sprintf "chaos: %s: %s" name e)

(* The doomed domain: hogs [hog_pages] mapped optimistic frames behind a
   physical driver, and its revocation handler — replacing the
   MMEntry's cooperative one — stalls per the plan before replying, so
   it misses the 100 ms deadline and flunks the protocol. *)
let start_doomed sys =
  let hog_pages = 64 in
  let d =
    match
      System.add_domain sys ~name:"doomed" ~guarantee:2
        ~optimistic:hog_pages ()
    with
    | Ok d -> d
    | Error e -> failwith ("chaos: doomed: " ^ System.error_message e)
  in
  let s =
    match
      System.alloc_stretch d ~bytes:(hog_pages * Addr.page_size) ()
    with
    | Ok s -> s
    | Error e -> failwith ("chaos: doomed: " ^ e)
  in
  (match System.bind_physical d s with
  | Ok _ -> ()
  | Error e -> failwith ("chaos: doomed: " ^ System.error_message e));
  let sim = System.sim sys in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"hog" (fun () ->
         for i = 0 to hog_pages - 1 do
           Domains.access d.System.dom (Stretch.page_base s i) `Write
         done;
         (* Keep the frames mapped until revoked (or killed). *)
         let rec idle () =
           Proc.sleep (Time.sec 3600);
           idle ()
         in
         idle ()));
  Frames.set_revocation_handler d.System.frames_client
    (fun ~k:_ ~deadline:_ ->
      ignore
        (Proc.spawn ~name:"doomed.revoke" sim (fun () ->
             (match Inject.stall ~site:"doomed.revoke" with
             | Some span -> Proc.sleep span
             | None -> ());
             (* Too late, and with nothing cleaned anyway. *)
             Frames.revocation_ready (System.frames sys)
               d.System.frames_client)));
  d

(* The pressure gremlin: every plan period, grab every frame the
   guarantee allows — squeezing the free pool to zero and forcing the
   allocator into revocation — hold them briefly, then give them back. *)
let start_press sys press =
  let fr = System.frames sys in
  ignore
    (Proc.spawn ~name:"press" (System.sim sys) (fun () ->
         match Inject.pressure () with
         | None -> ()
         | Some p ->
           let rec loop () =
             Proc.sleep p.Inject.pr_period;
             let taken = ref [] in
             let continue_ = ref true in
             while !continue_ do
               match Frames.alloc fr press with
               | Some pfn -> taken := pfn :: !taken
               | None -> continue_ := false
             done;
             Inject.note_pressure_burst ();
             Proc.sleep p.Inject.pr_hold;
             List.iter (fun pfn -> Frames.free fr press pfn) !taken;
             loop ()
           in
           loop ()))

let report_of app name violations =
  { dr_name = name;
    dr_mbit = Workload.Paging_app.sustained_mbit app;
    dr_accesses = Workload.Paging_app.measured_accesses app;
    dr_violations = violations }

let run ?(seed = 42) ?(duration = Time.sec 30) () =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config = { System.default_config with seed; main_memory_mb = 2 } in
  let sys = System.create ~config () in
  let clean1 = start_app sys ~name:"clean1" () in
  let clean2 = start_app sys ~name:"clean2" () in
  let wb =
    match Policy.Spec.of_string "fifo+wb8" with
    | Ok s -> s
    | Error e -> failwith ("chaos: " ^ e)
  in
  let victim =
    start_app sys ~name:"victim" ~policy:wb ~spare_pages:4 ~optimistic:12 ()
  in
  let doomed = start_doomed sys in
  let press =
    match
      Frames.admit (System.frames sys) ~domain:999 ~guarantee:215
        ~optimistic:0
    with
    | Ok c -> c
    | Error e -> failwith ("chaos: press: " ^ Frames.error_message e)
  in
  let first, nblocks = Workload.Paging_app.swap_extent victim in
  Inject.arm (plan_for ~seed ~first ~nblocks);
  start_press sys press;
  System.run ~until:duration sys;
  (* Injection-free drain: in-flight retries and write-behind flushes
     complete, so the recovery books can settle. *)
  Inject.disarm ();
  System.run ~until:(Time.add duration (Time.sec 2)) sys;
  let doomed_id = Domains.id doomed.System.dom in
  let doomed_killed = not (Domains.alive doomed.System.dom) in
  let rt = System.ramtab sys in
  let still_owned = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    if Ramtab.owner rt ~pfn = Some doomed_id then incr still_owned
  done;
  let doomed_frames_reclaimed =
    doomed_killed && !still_owned = 0
    && not (Frames.is_live doomed.System.frames_client)
  in
  let viol app name =
    Harness.violations_for ~names:[ name ]
      ~ids:[ Domains.id (Workload.Paging_app.domain app).System.dom ]
  in
  let c1 = viol clean1 "clean1" and c2 = viol clean2 "clean2" in
  { seed;
    duration;
    victim = report_of victim "victim" (viol victim "victim");
    victim_info = Workload.Paging_app.paging_info victim;
    cleans =
      [ report_of clean1 "clean1" c1; report_of clean2 "clean2" c2 ];
    tally = Inject.tally ();
    accounted = Inject.accounted ();
    injected_by_class = Inject.by_class ();
    doomed_killed;
    doomed_frames_reclaimed;
    intrusive_revocations = Frames.revocations (System.frames sys);
    clean_violations = c1 + c2;
    audit = Obs.Qos_audit.summarize () }

let ok r =
  r.clean_violations = 0 && r.accounted && r.doomed_killed
  && r.doomed_frames_reclaimed
  && r.tally.Inject.injected_errors > 0

let mbit_s f = if Float.is_nan f then "warming" else Report.f2 f

let print r =
  Report.heading "Chaos: QoS firewalling under injected faults";
  Printf.printf "seed %d, %.0f s injected + 2 s drain\n\n" r.seed
    (Time.to_sec r.duration);
  Report.table
    ~header:[ "domain"; "Mbit/s"; "accesses"; "violations" ]
    (List.map
       (fun d ->
         [ d.dr_name; mbit_s d.dr_mbit; string_of_int d.dr_accesses;
           string_of_int d.dr_violations ])
       (r.victim :: r.cleans));
  print_newline ();
  let t = r.tally in
  Printf.printf
    "injected: %d media errors, %d spikes, %d stalls, %d drops, %d \
     delays, %d pressure bursts\n"
    t.Inject.injected_errors t.Inject.spikes t.Inject.stalls_injected
    t.Inject.chan_drops t.Inject.chan_delays t.Inject.pressure_bursts;
  Printf.printf
    "recovered: %d retried + %d remapped + %d degraded + %d killed = %d \
     (%s)\n"
    t.Inject.retried t.Inject.remapped t.Inject.degraded t.Inject.killed
    (t.Inject.retried + t.Inject.remapped + t.Inject.degraded
   + t.Inject.killed)
    (if r.accounted then "books balance" else "UNACCOUNTED ERRORS");
  List.iter
    (fun (cls, n) -> Printf.printf "  %-28s %d\n" cls n)
    r.injected_by_class;
  let i = r.victim_info in
  Printf.printf
    "victim driver: %d lost pages, %d re-bloks, %d shed frames, \
     wb_degraded=%b, swap_exhausted=%b\n"
    i.Sd_paged.lost_pages i.Sd_paged.rebloks i.Sd_paged.shed_frames
    i.Sd_paged.wb_degraded i.Sd_paged.swap_exhausted;
  Printf.printf
    "revocation: %d intrusive rounds; doomed domain %s, frames %s \
     (RamTab)\n\n"
    r.intrusive_revocations
    (if r.doomed_killed then "killed" else "STILL ALIVE")
    (if r.doomed_frames_reclaimed then "reclaimed" else "STILL OWNED");
  Report.audit_section "Chaos QoS audit" (Some r.audit);
  Printf.printf "clean-domain violations: %d\n" r.clean_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — clean domains unperturbed, every injected fault \
        accounted for"
     else "VERDICT: FAILED")

let to_json r =
  let b = Buffer.create 1024 in
  let t = r.tally in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_s\": %.0f,\n" (Time.to_sec r.duration));
  let dom d =
    Printf.sprintf
      "{\"name\": %S, \"mbit_s\": %s, \"accesses\": %d, \"violations\": %d}"
      d.dr_name
      (if Float.is_nan d.dr_mbit then "null"
       else Printf.sprintf "%.3f" d.dr_mbit)
      d.dr_accesses d.dr_violations
  in
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": [%s],\n"
       (String.concat ", " (List.map dom (r.victim :: r.cleans))));
  Buffer.add_string b
    (Printf.sprintf
       "  \"injected\": {\"errors\": %d, \"spikes\": %d, \"stalls\": %d, \
        \"chan_drops\": %d, \"chan_delays\": %d, \"pressure_bursts\": \
        %d},\n"
       t.Inject.injected_errors t.Inject.spikes t.Inject.stalls_injected
       t.Inject.chan_drops t.Inject.chan_delays t.Inject.pressure_bursts);
  Buffer.add_string b
    (Printf.sprintf
       "  \"recovered\": {\"retried\": %d, \"remapped\": %d, \"degraded\": \
        %d, \"killed\": %d},\n"
       t.Inject.retried t.Inject.remapped t.Inject.degraded
       t.Inject.killed);
  Buffer.add_string b
    (Printf.sprintf "  \"accounted\": %b,\n" r.accounted);
  let i = r.victim_info in
  Buffer.add_string b
    (Printf.sprintf
       "  \"victim_driver\": {\"lost_pages\": %d, \"rebloks\": %d, \
        \"shed_frames\": %d, \"wb_degraded\": %b, \"swap_exhausted\": \
        %b},\n"
       i.Sd_paged.lost_pages i.Sd_paged.rebloks i.Sd_paged.shed_frames
       i.Sd_paged.wb_degraded i.Sd_paged.swap_exhausted);
  Buffer.add_string b
    (Printf.sprintf "  \"doomed_killed\": %b,\n" r.doomed_killed);
  Buffer.add_string b
    (Printf.sprintf "  \"doomed_frames_reclaimed\": %b,\n"
       r.doomed_frames_reclaimed);
  Buffer.add_string b
    (Printf.sprintf "  \"intrusive_revocations\": %d,\n"
       r.intrusive_revocations);
  Buffer.add_string b
    (Printf.sprintf "  \"clean_violations\": %d,\n" r.clean_violations);
  Buffer.add_string b (Printf.sprintf "  \"ok\": %b\n" (ok r));
  Buffer.add_string b "}";
  Buffer.contents b
