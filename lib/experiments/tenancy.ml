open Engine
open Hw
open Core

(* Multi-tenancy over stacked pagers: one template domain's paged
   stretch is frozen and CoW-forked into N tenants, every tenant also
   maps a shared read-only "text" segment, and tenant swap traffic
   goes through the compressed-RAM tier (Sd_zram over one Zpool)
   before the disk. Half the tenants are killed mid-run. The claims
   checked at the end:

   - exactly-one-copy sharing: the frames backing all tenants'
     template + segment pages are counted once, in the share registry,
     and the double-entry reference books balance — including across
     the kills (allocs = breaks + detaches + live refs, no frame
     leaked, no ref on a non-registry frame);
   - self-paging isolation holds: two bystander paging domains see
     zero QoS violations whatever the tenant fleet does;
   - the run is deterministic: same seed, byte-identical report.

   [~share:false] is the control arm for the bench: the template is
   frozen untouched (no shared frames), so every tenant faults its
   whole working set privately — same workload, no sharing, and with
   [~zram:false] no compressed tier either. *)

type result = {
  seed : int;
  tenants : int;
  killed : int;
  duration : Time.span;
  share : bool;
  zram : bool;
  (* sharing *)
  template_pages : int;
  template_frozen : int;  (** frames the freeze moved to the registry *)
  cow_shared_faults : int;
  cow_breaks : int;
  break_mean_us : float;
  break_p95_us : float;
  seg_fills : int;
  seg_hits : int;
  seg_resident : int;
  reg_books : Share.Registry.books;
  reg_balanced : bool;
  refs_leaked : int;
  (* residency *)
  resident_pages : int;  (** pages resident across live tenants *)
  tenant_frames : int;  (** frames live tenants hold *)
  shared_frames : int;  (** registry frames backing the shared pages *)
  frames_per_content : float;  (** resident pages per frame consumed *)
  (* compressed tier *)
  zram_hits : int;
  zram_misses : int;
  zram_hit_mean_us : float;  (** page-in cost when the pool hits *)
  zram_miss_mean_us : float;  (** page-in cost when the disk serves *)
  zpool_stats : Share.Zpool.stats option;
  zpool_frames : int;
  zpool_bursts : int;
  (* fault service *)
  fault_count : int;
  fault_mean_us : float;
  fault_p95_us : float;
  (* system books *)
  frames_total : int;
  frames_free : int;
  frames_held : int;
  frames_owned : int;
  books_balanced : bool;
  bystander_violations : int;
  violations : int;
  inject_accounted : bool;
  audit : Obs.Qos_audit.summary;
}

(* Geometry. The template owns [tpl_pages]; tenants read the low
   [tpl_pages - wspan] pages shared and write a rotating window over
   the top [wspan] — bigger than a tenant's frame capacity
   (guarantee + optimistic), so the inner pagers must evict and the
   compressed tier sees real traffic. *)
let tpl_pages = 24
let wspan = 12
let seg_pages = 8
let seg_name = "text"
let tpl_guarantee = 26
let tenant_guarantee = 6
let tenant_optimistic = 2
let reg_guarantee = tpl_pages + seg_pages + 4
let zpool_optimistic = 16
let zpool_budget = 12

(* Merge the per-tenant fault-latency histograms (labels [t...]) into
   one (count, mean, p95-upper-bound) triple. *)
let tenant_fault_stats () =
  let views =
    List.filter_map
      (fun label ->
        if String.length label > 0 && label.[0] = 't' then
          Obs.Metrics.hist_view ~label "fault.latency_us"
        else None)
      (Obs.Metrics.labels_of "fault.latency_us")
  in
  let count = List.fold_left (fun a v -> a + v.Obs.Metrics.hv_count) 0 views in
  if count = 0 then (0, Float.nan, Float.nan)
  else begin
    let mean =
      List.fold_left
        (fun a v ->
          a +. (v.Obs.Metrics.hv_mean *. float_of_int v.Obs.Metrics.hv_count))
        0.0 views
      /. float_of_int count
    in
    let p95 =
      List.fold_left
        (fun a v -> Float.max a (Obs.Metrics.hist_quantile v 0.95))
        0.0 views
    in
    (count, mean, p95)
  end

type tenant_rec = {
  tr_dom : System.domain;
  tr_cow : Share.Cow.tenant;
  tr_seg : Share.Seg.attachment;
  mutable tr_live : bool;
}

let run ?(seed = 42) ?(tenants = 32) ?(duration = Time.sec 40)
    ?(share = true) ?(zram = true) () =
  if tenants < 2 then invalid_arg "Tenancy.run: need at least 2 tenants";
  Obs.set_enabled true;
  Obs.reset ();
  Obs.Qos_audit.reset ();
  Inject.disarm ();
  if zram then
    Inject.arm
      { Inject.default_plan with
        seed;
        zpool_pressure =
          Some
            { Inject.zp_period = Time.sec 8; zp_hold = Time.sec 2;
              zp_shrink = zpool_budget } };
  (* Memory: every guarantee fits, plus headroom for the optimistic
     holdings (tenant windows, the zpool's budget). *)
  let guaranteed =
    tpl_guarantee + (tenants * tenant_guarantee) + reg_guarantee
    + (2 * tenant_guarantee) (* bystanders *)
    + tenant_guarantee (* proto *)
  in
  let frames_wanted =
    (guaranteed * 5 / 4) + zpool_optimistic + (tenants * tenant_optimistic)
  in
  let frames_per_mb = 1024 * 1024 / Addr.page_size in
  let mem_mb = max 2 ((frames_wanted + frames_per_mb - 1) / frames_per_mb) in
  let config = { System.default_config with seed; main_memory_mb = mem_mb } in
  let sys = System.create ~config () in
  let sim = System.sim sys in
  let ndoms = tenants + 3 in
  let cpu_slice = Time.us (max 20 (7_700 / ndoms)) in
  let usd_period_ms = max 400 (ndoms * 32) in
  let usd_period = Time.ms usd_period_ms in
  let usd_slice = Time.us (max 500 (usd_period_ms * 800 / ndoms)) in
  let qos () = Usbs.Qos.make ~period:usd_period ~slice:usd_slice () in
  let reg =
    match Share.Registry.create sys ~guarantee:reg_guarantee with
    | Ok r -> r
    (* Setup failwiths throughout: the tenant fleet admits by
       construction; a refusal or stacking error while building the
       world is an experiment bug, not a measurable outcome. *)
    | Error e -> failwith ("tenancy: registry: " ^ System.error_message e)
  in
  let seg = Share.Seg.create ~reg ~name:seg_name ~npages:seg_pages () in
  let zpool =
    if not zram then None
    else
      match System.admit_service sys ~guarantee:0 ~optimistic:zpool_optimistic with
      | Error e -> failwith ("tenancy: zpool admit: " ^ System.error_message e)
      | Ok (_, client) ->
        Some
          (Share.Zpool.create ~sim ~frames:(System.frames sys) ~client
             ~ramtab:(System.ramtab sys) ~budget:zpool_budget ())
  in
  (* Bystanders: ordinary self-paging applications whose QoS must be
     untouched by anything the tenant fleet does. *)
  let bystanders =
    List.map
      (fun (name, pattern) ->
        match
          Workload.Paging_app.start sys ~name
            ~mode:Workload.Paging_app.Paging_in ~qos:(qos ())
            ~vm_bytes:(16 * Addr.page_size) ~phys_frames:tenant_guarantee
            ~optimistic:0 ~swap_bytes:(32 * Addr.page_size) ~cpu_slice
            ~pattern ()
        with
        | Ok a -> a
        | Error e -> failwith (Printf.sprintf "tenancy: %s: %s" name e))
      [ ("bystander0", Workload.Paging_app.Sequential);
        ("bystander1", Workload.Paging_app.Hotspot) ]
  in
  (* The template: a domain big enough to keep the whole image
     resident for the freeze. *)
  let template =
    match
      System.add_domain sys ~name:"template" ~cpu_slice
        ~guarantee:tpl_guarantee ~optimistic:0 ()
    with
    | Ok d -> d
    | Error e -> failwith ("tenancy: template: " ^ System.error_message e)
  in
  let tpl_stretch, tpl_handle =
    match
      System.alloc_stretch template ~bytes:(tpl_pages * Addr.page_size) ()
    with
    | Error msg -> failwith ("tenancy: template stretch: " ^ msg)
    | Ok s ->
      (match
         System.bind_paged template ~initial_frames:tpl_pages
           ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos:(qos ()) s ()
       with
      | Error e ->
        failwith ("tenancy: template pager: " ^ System.error_message e)
      | Ok (_, h) -> (s, h))
  in
  (* The envelope donor: tenants are admitted under this spec. *)
  let proto =
    match
      System.add_domain sys ~name:"proto" ~cpu_slice
        ~guarantee:tenant_guarantee ~optimistic:tenant_optimistic ()
    with
    | Ok d -> d
    | Error e -> failwith ("tenancy: proto: " ^ System.error_message e)
  in
  let frozen : Share.Cow.template Sync.Ivar.t = Sync.Ivar.create () in
  (* Template thread: warm the image (unless this is the no-share
     control arm), then freeze — surrender every resident page to the
     registry. *)
  ignore
    (Domains.spawn_thread template.System.dom ~name:"template.warm" (fun () ->
         if share then
           for p = 0 to tpl_pages - 1 do
             Domains.access template.System.dom
               (Stretch.page_base tpl_stretch p) `Write
           done;
         let tpl =
           Share.Cow.freeze ~reg ~name:"image" template tpl_handle
             ~npages:tpl_pages
         in
         Sync.Ivar.fill frozen tpl));
  let recs : tenant_rec list ref = ref [] in
  let killed = ref 0 in
  let template_frozen = ref 0 in
  let backing =
    match zpool with
    | None -> None
    | Some zp ->
      Some
        (fun label swap ->
          Share.Sd_zram.backing
            (Share.Sd_zram.create ~label ~zpool:zp
               ~below:(Tier.Backing.of_sfs swap) ()))
  in
  (* Tenant behaviour: read the segment and the shared low pages, then
     write the top [wspan] pages once (the CoW breaks) and settle into
     a read-mostly loop over that private window — wider than the
     tenant's frame capacity, so the inner pager pages against the
     compressed tier for the life of the run, and mostly with clean
     page-ins (one write per round keeps fresh versions flowing into
     the pool). *)
  let tenant_thread (d : System.domain) stretch seg_stretch =
    for p = 0 to seg_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base seg_stretch p) `Read
    done;
    for p = 0 to tpl_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base stretch p) `Read
    done;
    for p = tpl_pages - wspan to tpl_pages - 1 do
      Domains.access d.System.dom (Stretch.page_base stretch p) `Write
    done;
    let r = ref 0 in
    while true do
      let wp = tpl_pages - wspan + (!r mod wspan) in
      Domains.access d.System.dom (Stretch.page_base stretch wp) `Write;
      for k = 0 to 5 do
        let p = tpl_pages - wspan + (((!r * 3) + (k * 2)) mod wspan) in
        Domains.access d.System.dom (Stretch.page_base stretch p) `Read
      done;
      for k = 0 to 1 do
        let p = (!r + k) mod (tpl_pages - wspan) in
        Domains.access d.System.dom (Stretch.page_base stretch p) `Read
      done;
      Domains.access d.System.dom
        (Stretch.page_base seg_stretch (!r mod seg_pages))
        `Read;
      incr r;
      Proc.sleep (Time.ms 5)
    done
  in
  (* Orchestrator: wait for the freeze, retire the template domain
     (the shared frames must survive its death), fork the fleet, then
     kill half of it at T/2. *)
  ignore
    (Proc.spawn ~name:"tenancy.orchestrator" sim (fun () ->
         let tpl = Sync.Ivar.read frozen in
         template_frozen := Share.Cow.shared_frames tpl;
         System.kill_domain sys template;
         for i = 0 to tenants - 1 do
           let name = Printf.sprintf "t%02d" i in
           match
             Share.Cow.spawn sys ~template:tpl ~tpl_domain:proto ~name
               ?backing:
                 (match backing with
                 | None -> None
                 | Some mk -> Some (mk (Printf.sprintf "zram.%s" name)))
               ~initial_frames:2 ~npages:tpl_pages
               ~swap_bytes:(2 * tpl_pages * Addr.page_size) ~qos:(qos ()) ()
           with
           | Error e ->
             failwith
               (Printf.sprintf "tenancy: %s: %s" name (System.error_message e))
           | Ok (d, (cow, stretch)) ->
             (match Share.Seg.attach seg d with
             | Error e ->
               failwith
                 (Printf.sprintf "tenancy: %s seg: %s" name
                    (System.error_message e))
             | Ok (att, seg_stretch) ->
               recs :=
                 { tr_dom = d; tr_cow = cow; tr_seg = att; tr_live = true }
                 :: !recs;
               ignore
                 (Domains.spawn_thread d.System.dom ~name:(name ^ ".work")
                    (fun () -> tenant_thread d stretch seg_stretch)))
         done;
         recs := List.rev !recs;
         Proc.sleep_until (Time.add Time.zero (Time.to_ns duration / 2));
         (* kill the top half of the fleet mid-share *)
         List.iteri
           (fun i tr ->
             if i >= tenants / 2 then begin
               System.kill_domain sys tr.tr_dom;
               tr.tr_live <- false;
               incr killed
             end)
           !recs));
  System.run ~until:duration sys;
  (* ---- books ---------------------------------------------------- *)
  let fr = System.frames sys in
  let rt = System.ramtab sys in
  let live = List.filter (fun tr -> tr.tr_live) !recs in
  let tenant_frames =
    List.fold_left
      (fun a tr -> a + Frames.held tr.tr_dom.System.frames_client)
      0 live
  in
  (* Content residency: shared mappings cost no tenant frame; private
     pages cost exactly the frames the tenant holds (counting pool
     slack as content is the conservative direction for the ratio). *)
  let resident_pages =
    List.fold_left
      (fun a tr ->
        let s = Share.Cow.stats tr.tr_cow in
        a + s.Share.Cow.c_stat_shared_now + Share.Seg.mapped tr.tr_seg)
      0 live
    + tenant_frames
  in
  let reg_books = Share.Registry.books reg in
  let shared_frames = reg_books.Share.Registry.b_live_frames in
  let frames_per_content =
    if tenant_frames + shared_frames = 0 then Float.nan
    else
      float_of_int resident_pages /. float_of_int (tenant_frames + shared_frames)
  in
  (* every RamTab reference must be on a registry frame *)
  let total_refs = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    total_refs := !total_refs + Ramtab.refs rt ~pfn
  done;
  let refs_leaked = !total_refs - reg_books.Share.Registry.b_live_refs in
  let books = Frames.books fr in
  let break_mean_us, break_p95_us =
    match Obs.Metrics.hist_view "share.break_us" with
    | Some v -> (v.Obs.Metrics.hv_mean, Obs.Metrics.hist_quantile v 0.95)
    | None -> (Float.nan, Float.nan)
  in
  let fault_count, fault_mean_us, fault_p95_us = tenant_fault_stats () in
  let audit = Obs.Qos_audit.summarize () in
  let bystander_violations =
    Harness.violations_for
      ~names:[ "bystander0"; "bystander1" ]
      ~ids:
        (List.map
           (fun a -> Domains.id (Workload.Paging_app.domain a).System.dom)
           bystanders)
  in
  { seed;
    tenants;
    killed = !killed;
    duration;
    share;
    zram;
    template_pages = tpl_pages;
    template_frozen = !template_frozen;
    cow_shared_faults = Obs.Metrics.sum_labels "share.cow_shared";
    cow_breaks = Obs.Metrics.sum_labels "share.cow_break";
    break_mean_us;
    break_p95_us;
    seg_fills = Share.Seg.fills seg;
    seg_hits = Obs.Metrics.sum_labels "seg.hit";
    seg_resident = Share.Seg.resident seg;
    reg_books;
    reg_balanced = Share.Registry.books_balanced reg;
    refs_leaked;
    resident_pages;
    tenant_frames;
    shared_frames;
    frames_per_content;
    zram_hits = Obs.Metrics.sum_labels "zram.hit";
    zram_misses = Obs.Metrics.sum_labels "zram.miss";
    zram_hit_mean_us =
      (match Obs.Metrics.hist_view "zram.hit_us" with
      | Some v -> v.Obs.Metrics.hv_mean
      | None -> Float.nan);
    zram_miss_mean_us =
      (match Obs.Metrics.hist_view "zram.miss_us" with
      | Some v -> v.Obs.Metrics.hv_mean
      | None -> Float.nan);
    zpool_stats = (match zpool with Some z -> Some (Share.Zpool.stats z) | None -> None);
    zpool_frames = (match zpool with Some z -> Share.Zpool.frames_held z | None -> 0);
    zpool_bursts = (Inject.tally ()).Inject.zpool_bursts;
    fault_count;
    fault_mean_us;
    fault_p95_us;
    frames_total = Frames.total_frames fr;
    frames_free = Frames.free_frames fr;
    frames_held = books.Frames.b_held;
    frames_owned = books.Frames.b_owned;
    books_balanced = books.Frames.b_balanced;
    bystander_violations;
    violations = audit.Obs.Qos_audit.violations;
    inject_accounted = Inject.accounted ();
    audit }


let ok r =
  r.bystander_violations = 0 && r.reg_balanced && r.books_balanced
  && r.refs_leaked = 0
  && r.killed = r.tenants / 2
  && r.inject_accounted
  && (not r.share
     || (r.template_frozen > 0 && r.cow_shared_faults > 0 && r.cow_breaks > 0
        (* killing tenants can free a segment frame's last reference;
           a later fault refills it — so fills may exceed resident, but
           never the other way round, and residency never exceeds the
           segment *)
        && r.seg_resident > 0
        && r.seg_resident <= seg_pages
        && r.seg_fills >= r.seg_resident
        && r.frames_per_content >= 1.5))
  && (not r.zram || (r.zram_hits > 0 && r.zpool_bursts >= 1))

let fnum f = if Float.is_nan f then "n/a" else Report.f1 f

let print r =
  Report.heading "Multi-tenancy: CoW fleet over stacked pagers";
  Printf.printf "seed %d, %d tenants (%d killed at T/2), %.0f s, %s%s\n\n"
    r.seed r.tenants r.killed (Time.to_sec r.duration)
    (if r.share then "CoW sharing" else "no sharing (control)")
    (if r.zram then " + zram tier" else "");
  Printf.printf
    "template: %d pages, %d frozen into the registry; segment %S: %d fills \
     for %d resident pages, %d shared hits\n"
    r.template_pages r.template_frozen seg_name r.seg_fills r.seg_resident
    r.seg_hits;
  Printf.printf
    "CoW: %d shared-map faults, %d breaks (mean %s us, p95 <= %s us)\n"
    r.cow_shared_faults r.cow_breaks (fnum r.break_mean_us)
    (fnum r.break_p95_us);
  let b = r.reg_books in
  Printf.printf
    "registry: %d installs - %d frees = %d live frames; %d grants - %d \
     breaks - %d detaches = %d live refs (%s)\n"
    b.Share.Registry.b_installs b.Share.Registry.b_frees
    b.Share.Registry.b_live_frames b.Share.Registry.b_grants
    b.Share.Registry.b_breaks b.Share.Registry.b_detaches
    b.Share.Registry.b_live_refs
    (if r.reg_balanced then "books balance" else "BOOKS OFF");
  Printf.printf
    "residency: %d resident pages on %d tenant + %d shared frames = %s \
     pages/frame; %d refs leaked\n"
    r.resident_pages r.tenant_frames r.shared_frames
    (fnum r.frames_per_content) r.refs_leaked;
  (match r.zpool_stats with
  | None -> ()
  | Some z ->
    Printf.printf
      "zram: %d hits / %d misses; pool %d frames, %d stored, %d \
       incompressible, %d overflow, %d shed over %d pressure bursts\n"
      r.zram_hits r.zram_misses r.zpool_frames z.Share.Zpool.z_stored
      z.Share.Zpool.z_incompressible z.Share.Zpool.z_overflow
      z.Share.Zpool.z_shed_frames r.zpool_bursts;
    Printf.printf "zram page-in: hit mean %s us vs disk mean %s us\n"
      (fnum r.zram_hit_mean_us) (fnum r.zram_miss_mean_us));
  Printf.printf
    "tenant faults: %d, mean %s us, p95 <= %s us\n"
    r.fault_count (fnum r.fault_mean_us) (fnum r.fault_p95_us);
  Printf.printf "frames: %d free + %d held = %d total; RamTab owns %d (%s)\n\n"
    r.frames_free r.frames_held r.frames_total r.frames_owned
    (if r.books_balanced then "books balance" else "BOOKS OFF");
  Report.audit_section "Tenancy QoS audit" (Some r.audit);
  Printf.printf "bystander violations: %d\n" r.bystander_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — one copy per shared page, balanced books through \
        the kills, bystanders untouched"
     else "VERDICT: FAILED")

let to_json r =
  let jf = Json.fixed 3 in
  let bk = r.reg_books in
  let zram_tier =
    match r.zpool_stats with
    | None -> Json.null
    | Some z ->
      Json.obj
        [ ("hits", Json.int r.zram_hits); ("misses", Json.int r.zram_misses);
          ("pool_frames", Json.int r.zpool_frames);
          ("stored", Json.int z.Share.Zpool.z_stored);
          ("incompressible", Json.int z.Share.Zpool.z_incompressible);
          ("overflow", Json.int z.Share.Zpool.z_overflow);
          ("shed_frames", Json.int z.Share.Zpool.z_shed_frames);
          ("bursts", Json.int r.zpool_bursts);
          ("hit_mean_us", jf r.zram_hit_mean_us);
          ("miss_mean_us", jf r.zram_miss_mean_us) ]
  in
  Json.obj
    [ ("seed", Json.int r.seed); ("tenants", Json.int r.tenants);
      ("killed", Json.int r.killed);
      ("duration_s", Json.fixed 0 (Time.to_sec r.duration));
      ("share", Json.bool r.share); ("zram", Json.bool r.zram);
      ( "template",
        Json.ints
          [ ("pages", r.template_pages); ("frozen", r.template_frozen) ] );
      ( "cow",
        Json.obj
          [ ("shared_faults", Json.int r.cow_shared_faults);
            ("breaks", Json.int r.cow_breaks);
            ("break_mean_us", jf r.break_mean_us);
            ("break_p95_us", jf r.break_p95_us) ] );
      ( "seg",
        Json.ints
          [ ("fills", r.seg_fills); ("hits", r.seg_hits);
            ("resident", r.seg_resident) ] );
      ( "registry",
        Json.obj
          [ ("installs", Json.int bk.Share.Registry.b_installs);
            ("frees", Json.int bk.Share.Registry.b_frees);
            ("grants", Json.int bk.Share.Registry.b_grants);
            ("breaks", Json.int bk.Share.Registry.b_breaks);
            ("detaches", Json.int bk.Share.Registry.b_detaches);
            ("live_frames", Json.int bk.Share.Registry.b_live_frames);
            ("live_refs", Json.int bk.Share.Registry.b_live_refs);
            ("balanced", Json.bool r.reg_balanced);
            ("refs_leaked", Json.int r.refs_leaked) ] );
      ( "residency",
        Json.obj
          [ ("resident_pages", Json.int r.resident_pages);
            ("tenant_frames", Json.int r.tenant_frames);
            ("shared_frames", Json.int r.shared_frames);
            ("pages_per_frame", jf r.frames_per_content) ] );
      ("zram_tier", zram_tier);
      ( "faults",
        Json.obj
          [ ("count", Json.int r.fault_count);
            ("mean_us", jf r.fault_mean_us); ("p95_us", jf r.fault_p95_us) ]
      );
      ( "frames",
        Json.obj
          [ ("total", Json.int r.frames_total);
            ("free", Json.int r.frames_free); ("held", Json.int r.frames_held);
            ("owned", Json.int r.frames_owned);
            ("books_balanced", Json.bool r.books_balanced) ] );
      ("bystander_violations", Json.int r.bystander_violations);
      ("violations", Json.int r.violations);
      ("inject_accounted", Json.bool r.inject_accounted);
      ("ok", Json.bool (ok r)) ]

(* --- bench share: the fleet against its control arm --------------- *)

type bench_result = {
  b_shared : result;
  b_control : result;
  b_frame_savings : float;
  b_fleet_vs_control : float;
  b_zram_speedup : float;
  b_ok : bool;
}

(* Unshared, each resident page needs its own frame — so the shared
   arm's pages-per-frame ratio IS the resident-frame reduction for the
   content the fleet holds. The control arm (no CoW, no zram, but the
   same workload, still sharing the text segment) gives the
   fleet-level quotient and the disk-only fault baseline. *)
let bench () =
  let shared = run () in
  let control = run ~share:false ~zram:false () in
  let savings = shared.frames_per_content in
  let speedup = shared.zram_miss_mean_us /. shared.zram_hit_mean_us in
  { b_shared = shared;
    b_control = control;
    b_frame_savings = savings;
    b_fleet_vs_control = savings /. control.frames_per_content;
    b_zram_speedup = speedup;
    b_ok = savings >= 2.0 && speedup >= 10.0 && ok shared && ok control }

let bench_print r =
  let shared = r.b_shared and control = r.b_control in
  print shared;
  print control;
  Report.heading "Sharing verdict";
  Printf.printf
    "resident-frame savings: %.1fx (%d resident pages on %d frames; \
     unshared the same content needs %d) — %s\n"
    r.b_frame_savings shared.resident_pages
    (shared.tenant_frames + shared.shared_frames)
    shared.resident_pages
    (if r.b_frame_savings >= 2.0 then "ok (>= 2x)" else "BELOW 2x");
  Printf.printf
    "fleet vs control:       %.2fx (shared %.2f vs control %.2f \
     pages/frame; control still shares the text segment)\n"
    r.b_fleet_vs_control shared.frames_per_content control.frames_per_content;
  Printf.printf
    "zram page-in speedup:   %.0fx (hit %.1f us vs disk %.1f us) — %s\n"
    r.b_zram_speedup shared.zram_hit_mean_us shared.zram_miss_mean_us
    (if r.b_zram_speedup >= 10.0 then "ok (>= 10x)" else "BELOW 10x");
  Printf.printf "CoW break: mean %.1f us, p95 <= %.1f us over %d breaks\n"
    shared.break_mean_us shared.break_p95_us shared.cow_breaks

let bench_to_json r =
  Json.obj
    [ ("shared", to_json r.b_shared); ("control", to_json r.b_control);
      ("frame_savings_x", Json.fixed 2 r.b_frame_savings);
      ("fleet_vs_control_x", Json.fixed 2 r.b_fleet_vs_control);
      ("zram_speedup_x", Json.fixed 1 r.b_zram_speedup);
      ("ok", Json.bool r.b_ok) ]
