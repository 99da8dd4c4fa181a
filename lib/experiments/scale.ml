open Engine
open Hw
open Core

type pattern_report = {
  pr_pattern : string;
  pr_domains : int;
  pr_measured : int;
  pr_accesses : int;
  pr_mbit : float;
}

type result = {
  seed : int;
  domains : int;
  duration : Time.span;
  patterns : pattern_report list;
  total_accesses : int;
  measured_domains : int;
  aggregate_mbit : float;
  refusal_requested : int;
  refusal_available : int;
  refusal_message : string;
  violations : int;
  audit : Obs.Qos_audit.summary;
  frames_total : int;
  frames_free : int;
  frames_held : int;
  frames_owned : int;
  guaranteed_total : int;
  books_balanced : bool;
  usd_utilisation : float;
  revocations : int;
  events : int;
}

(* Per-domain sizing. Guarantees only (o = 0): the point of the scale
   run is many domains self-paging concurrently under honest admission
   control, not revocation storms — the chaos experiment covers those. *)
let guarantee = 6
let vm_pages = 16
let swap_pages = 32

let run ?(seed = 42) ?(domains = 128) ?(duration = Time.sec 60) () =
  if domains < 1 then invalid_arg "Scale.run: domains must be positive";
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  (* Memory sized so every guarantee fits with ~25 % headroom left
     unguaranteed — tight enough that the late-comer refusal below is
     a real admission decision, not a formality. *)
  let frames_wanted = domains * guarantee * 5 / 4 in
  let frames_per_mb = 1024 * 1024 / Addr.page_size in
  let mem_mb = max 2 ((frames_wanted + frames_per_mb - 1) / frames_per_mb) in
  let config = { System.default_config with seed; main_memory_mb = mem_mb } in
  let sys = System.create ~config () in
  (* Flat contracts, scaled so the fleet books Σ s/p ≈ 0.77 of the CPU
     and ≈ 0.8 of the disk whatever [domains] is. The disk period also
     grows with the fleet: a disk transaction costs ~10 ms whatever the
     slice (the short-block problem), so each client's per-period slice
     must span whole transactions or EDF cannot possibly honour every
     contract within the period and the auditor rightly objects. *)
  let cpu_slice = Time.us (max 20 (7_700 / domains)) in
  let usd_period_ms = max 400 (domains * 32) in
  let usd_period = Time.ms usd_period_ms in
  let usd_slice = Time.us (max 500 (usd_period_ms * 800 / domains)) in
  let qos = Usbs.Qos.make ~period:usd_period ~slice:usd_slice () in
  let apps =
    List.init domains (fun i ->
        let pname, pattern = List.nth Harness.patterns (i mod 3) in
        let name = Printf.sprintf "d%03d" i in
        match
          Workload.Paging_app.start sys ~name
            ~mode:Workload.Paging_app.Paging_in ~qos
            ~vm_bytes:(vm_pages * Addr.page_size) ~phys_frames:guarantee
            ~optimistic:0 ~swap_bytes:(swap_pages * Addr.page_size)
            ~cpu_slice ~pattern ()
        with
        | Ok a -> (a, pname)
        (* Setup failwith: the first [domains] admissions are sized to
           fit; only the deliberate 129th below may be refused, and
           that refusal is typed and asserted on. *)
        | Error e -> failwith (Printf.sprintf "scale: %s: %s" name e))
  in
  (* The 129th domain: admission control must refuse it with the typed
     overcommit error carrying the exact shortfall. *)
  let fr = System.frames sys in
  let over = Frames.total_frames fr - Frames.guaranteed_total fr + 1 in
  let refusal_message, refusal_requested, refusal_available =
    match
      System.add_domain sys ~name:"latecomer" ~cpu_slice:(Time.us 20)
        ~guarantee:over ~optimistic:0 ()
    with
    | Ok _ -> failwith "scale: overcommitted admission was accepted"
    | Error
        (System.Frames_admission
           (Frames.Admission_overcommit { requested; available }) as e) ->
      (System.error_message e, requested, available)
    | Error e ->
      failwith ("scale: unexpected refusal: " ^ System.error_message e)
  in
  System.run ~until:duration sys;
  let agg pname =
    let mine = List.filter (fun (_, p) -> p = pname) apps in
    let measured =
      List.filter (fun (a, _) -> Workload.Paging_app.in_measured_loop a) mine
    in
    let mbit =
      List.fold_left
        (fun acc (a, _) ->
          let m = Workload.Paging_app.sustained_mbit a in
          if Float.is_nan m then acc else acc +. m)
        0.0 measured
    in
    { pr_pattern = pname;
      pr_domains = List.length mine;
      pr_measured = List.length measured;
      pr_accesses =
        List.fold_left
          (fun acc (a, _) -> acc + Workload.Paging_app.measured_accesses a)
          0 mine;
      pr_mbit = (if measured = [] then Float.nan else mbit) }
  in
  let patterns = List.map (fun (pname, _) -> agg pname) Harness.patterns in
  let held_sum =
    List.fold_left
      (fun acc d -> acc + Frames.held d.System.frames_client)
      0 (System.domains sys)
  in
  let rt = System.ramtab sys in
  let owned = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    if Ramtab.owner rt ~pfn <> None then incr owned
  done;
  let frames_total = Frames.total_frames fr in
  let frames_free = Frames.free_frames fr in
  let books_balanced =
    frames_free + held_sum = frames_total && !owned = held_sum
  in
  let audit = Obs.Qos_audit.summarize () in
  { seed;
    domains;
    duration;
    patterns;
    total_accesses =
      List.fold_left (fun a p -> a + p.pr_accesses) 0 patterns;
    measured_domains =
      List.fold_left (fun a p -> a + p.pr_measured) 0 patterns;
    aggregate_mbit =
      List.fold_left
        (fun a p -> if Float.is_nan p.pr_mbit then a else a +. p.pr_mbit)
        0.0 patterns;
    refusal_requested;
    refusal_available;
    refusal_message;
    violations = audit.Obs.Qos_audit.violations;
    audit;
    frames_total;
    frames_free;
    frames_held = held_sum;
    frames_owned = !owned;
    guaranteed_total = Frames.guaranteed_total fr;
    books_balanced;
    usd_utilisation = Usbs.Usd.utilisation (System.usd sys);
    revocations = Frames.revocations fr;
    events = Sim.executed (System.sim sys) }

let ok r =
  r.violations = 0 && r.books_balanced && r.total_accesses > 0
  && r.measured_domains > 0
  && r.refusal_available = r.frames_total - r.guaranteed_total
  && r.refusal_requested = r.refusal_available + 1

let mbit_s f = if Float.is_nan f then "warming" else Report.f2 f

let print r =
  Report.heading "Scale: many self-paging domains";
  Printf.printf "seed %d, %d domains, %.0f s\n\n" r.seed r.domains
    (Time.to_sec r.duration);
  Report.table
    ~header:[ "pattern"; "domains"; "measured"; "accesses"; "Mbit/s" ]
    (List.map
       (fun p ->
         [ p.pr_pattern; string_of_int p.pr_domains;
           string_of_int p.pr_measured; string_of_int p.pr_accesses;
           mbit_s p.pr_mbit ])
       r.patterns);
  print_newline ();
  Printf.printf
    "admission: %d domains × %d guaranteed frames = %d of %d; late-comer \
     asking %d refused (\"%s\")\n"
    r.domains guarantee r.guaranteed_total r.frames_total r.refusal_requested
    r.refusal_message;
  Printf.printf
    "frames: %d free + %d held = %d total; RamTab owns %d (%s)\n"
    r.frames_free r.frames_held r.frames_total r.frames_owned
    (if r.books_balanced then "books balance" else "BOOKS OFF");
  Printf.printf "disk utilisation booked: %s; intrusive revocations: %d\n\n"
    (Report.f2 r.usd_utilisation) r.revocations;
  Report.audit_section "Scale QoS audit" (Some r.audit);
  print_endline
    (if ok r then
       "VERDICT: ok — fleet admitted and isolated, zero violations, \
        books balance"
     else "VERDICT: FAILED")

let to_json r =
  let pat p =
    Json.obj
      [ ("pattern", Json.string p.pr_pattern);
        ("domains", Json.int p.pr_domains);
        ("measured", Json.int p.pr_measured);
        ("accesses", Json.int p.pr_accesses);
        ("mbit_s", Json.fixed 3 p.pr_mbit) ]
  in
  Json.obj
    [ ("seed", Json.int r.seed); ("domains", Json.int r.domains);
      ("duration_s", Json.fixed 0 (Time.to_sec r.duration));
      ("patterns", Json.list (List.map pat r.patterns));
      ("total_accesses", Json.int r.total_accesses);
      ("measured_domains", Json.int r.measured_domains);
      ("aggregate_mbit_s", Json.fixed 3 r.aggregate_mbit);
      ( "refusal",
        Json.obj
          [ ("requested", Json.int r.refusal_requested);
            ("available", Json.int r.refusal_available);
            ("message", Json.string r.refusal_message) ] );
      ( "frames",
        Json.obj
          [ ("total", Json.int r.frames_total);
            ("free", Json.int r.frames_free); ("held", Json.int r.frames_held);
            ("owned", Json.int r.frames_owned);
            ("guaranteed", Json.int r.guaranteed_total);
            ("books_balanced", Json.bool r.books_balanced) ] );
      ("usd_utilisation", Json.fixed 4 r.usd_utilisation);
      ("revocations", Json.int r.revocations);
      ("violations", Json.int r.violations); ("ok", Json.bool (ok r)) ]
