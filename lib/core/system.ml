open Engine
open Hw
open Disk
open Sched

type config = {
  seed : int;
  main_memory_mb : int;
  page_table : [ `Linear | `Guarded ];
  usd_rollover : bool;
  revocation_deadline : Time.span;
  sfs_journal_blocks : int;
}

let default_config =
  { seed = 42;
    main_memory_mb = 64;
    page_table = `Linear;
    usd_rollover = true;
    revocation_deadline = Time.ms 100;
    sfs_journal_blocks = 0 }

type error =
  | Cpu_admission of { reason : string }
  | Frames_admission of Frames.error
  | Usd_admission of { reason : string }
  | Swap_open of { name : string; error : Usbs.Sfs.open_error }
  | No_detached_swap of { name : string }
  | Swap_attached of { name : string }
  | Store_error of { reason : string }
  | Driver_error of { reason : string }

(* The printers reproduce the exact strings the stringly API returned,
   so reports and failwith-style consumers keep their messages. *)
let pp_error ppf = function
  | Cpu_admission { reason } -> Format.fprintf ppf "cpu: %s" reason
  | Frames_admission e -> Format.fprintf ppf "frames: %a" Frames.pp_error e
  | Usd_admission { reason } -> Format.pp_print_string ppf reason
  | Swap_open { error; _ } ->
    Format.pp_print_string ppf (Usbs.Sfs.open_error_message error)
  | No_detached_swap { name } ->
    Format.fprintf ppf "no detached swapfile %S to reattach" name
  | Swap_attached { name } ->
    Format.fprintf ppf "swapfile %S is still attached" name
  | Store_error { reason } | Driver_error { reason } ->
    Format.pp_print_string ppf reason

let error_message e = Format.asprintf "%a" pp_error e

type domain_spec = {
  sp_name : string;
  sp_cpu_period : Time.span;
  sp_cpu_slice : Time.span;
  sp_guarantee : int;
  sp_optimistic : int;
}

type domain = {
  dom : Domains.t;
  mm : Mm_entry.t;
  frames_client : Frames.client;
  env : Stretch_driver.env;
  dspec : domain_spec;
  sys : t;
}

and t = {
  simulator : Sim.t;
  the_mmu : Mmu.t;
  ramtab : Ramtab.t;
  the_translation : Translation.t;
  the_cpu : Cpu.t;
  salloc : Stretch_allocator.t;
  the_frames : Frames.t;
  dm : Disk_model.t;
  the_usd : Usbs.Usd.t;
  the_sfs : Usbs.Sfs.t;
  the_store : Usbs.File_store.t;
  fs_start : int;
  fs_len : int;
  mutable members : domain list;
  mutable next_id : int;
}

(* Stretchable virtual addresses start above a reserved system region
   of a 32-bit address space. *)
let va_bits = 32
let va_base = 0x1000_0000

let create ?(config = default_config) () =
  let simulator = Sim.create ~seed:config.seed () in
  let pt_impl =
    match config.page_table with
    | `Linear -> Linear_pt.impl (Linear_pt.create ~va_bits ())
    | `Guarded -> Guarded_pt.impl (Guarded_pt.create ~va_bits ())
  in
  let the_mmu = Mmu.create ~pt:pt_impl ~cost:Cost.nemesis () in
  let nframes = config.main_memory_mb * 1024 * 1024 / Addr.page_size in
  let ramtab = Ramtab.create ~nframes in
  let the_translation = Translation.create the_mmu ramtab in
  let va_bytes = (1 lsl va_bits) - va_base - Addr.page_size in
  let va_bytes = va_bytes / Addr.page_size * Addr.page_size in
  let salloc =
    Stretch_allocator.create the_translation ~va_base ~va_bytes
  in
  let the_frames =
    Frames.create ~revocation_deadline:config.revocation_deadline simulator
      ramtab ~nframes
  in
  let dm = Disk_model.create () in
  let the_usd =
    Usbs.Usd.create ~rollover:config.usd_rollover simulator dm
  in
  (* Partitions: swap in the first half of the disk, a raw region for
     streaming file-system clients in the third quarter, and the file
     store (named extent files, mapped stretches) in the last. *)
  let nblocks = (Disk_model.params dm).Disk_params.nblocks in
  let half = nblocks / 2 in
  let three_quarters = nblocks * 3 / 4 in
  let the_sfs =
    Usbs.Sfs.create ~journal_blocks:config.sfs_journal_blocks ~first_block:0
      ~nblocks:half the_usd
  in
  let the_store =
    Usbs.File_store.create ~first_block:three_quarters
      ~nblocks:(nblocks - three_quarters) the_usd
  in
  let t =
    { simulator; the_mmu; ramtab; the_translation;
      the_cpu = Cpu.create simulator; salloc; the_frames; dm; the_usd;
      the_sfs; the_store; fs_start = half; fs_len = three_quarters - half;
      members = []; next_id = 1 }
  in
  Frames.set_kill_handler t.the_frames (fun domain_id ->
      List.iter
        (fun d -> if Domains.id d.dom = domain_id then Domains.kill d.dom)
        t.members);
  t

let sim t = t.simulator
let mmu t = t.the_mmu
let translation t = t.the_translation
let ramtab t = t.ramtab
let stretch_allocator t = t.salloc
let frames t = t.the_frames
let disk t = t.dm
let usd t = t.the_usd
let sfs t = t.the_sfs
let file_store t = t.the_store
let domains t = t.members
let fs_partition t = (t.fs_start, t.fs_len)

let run ?until t = Sim.run ?until t.simulator

let add_domain t ~name ?(cpu_period = Time.ms 10) ?(cpu_slice = Time.us 500)
    ~guarantee ~optimistic () =
  match
    Cpu.admit t.the_cpu ~name ~period:cpu_period ~slice:cpu_slice ()
  with
  | Error reason -> Error (Cpu_admission { reason })
  | Ok cpu_client ->
    (match Frames.admit t.the_frames ~domain:t.next_id ~guarantee ~optimistic with
    | Error e ->
      Cpu.remove t.the_cpu cpu_client;
      Error (Frames_admission e)
    | Ok frames_client ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      let pd = Pdom.create ~asn:id in
      let dom =
        Domains.create ~sim:t.simulator ~id ~name ~cpu:t.the_cpu ~cpu_client
          ~pdom:pd ~mmu:t.the_mmu ~cost:Cost.nemesis ()
      in
      let mm = Mm_entry.create dom in
      Mm_entry.wire_revocation mm t.the_frames frames_client;
      let env =
        { Stretch_driver.domain_id = id;
          domain_name = name;
          pdom = pd;
          translation = t.the_translation;
          frames = t.the_frames;
          frames_client;
          consume_cpu = Domains.consume_cpu dom;
          assert_idc_allowed = Domains.assert_idc_allowed dom;
          cost = Cost.nemesis }
      in
      let dspec =
        { sp_name = name; sp_cpu_period = cpu_period;
          sp_cpu_slice = cpu_slice; sp_guarantee = guarantee;
          sp_optimistic = optimistic }
      in
      let d = { dom; mm; frames_client; env; dspec; sys = t } in
      Domains.on_kill dom (fun () ->
          Frames.retire t.the_frames frames_client;
          Cpu.remove t.the_cpu cpu_client;
          t.members <- List.filter (fun d' -> d' != d) t.members);
      t.members <- t.members @ [ d ];
      Ok d)

let kill_domain _t d = Domains.kill d.dom

let spec d = d.dspec

(* A bare frames contract with no domain behind it (PR 7 stacked
   pagers): the share host holds frames on behalf of every sharer, and
   the zpool holds its compressed-tier budget, but neither is a
   schedulable domain — no CPU contract, no fault channel, no
   MMEntry. The client id comes out of the same counter as domain ids
   so RamTab ownership stays unambiguous. The caller must install a
   revocation handler before holding optimistic frames (the default
   for a handler-less client is to be killed, which for a service
   client is a no-op member scan — the frames would only be reclaimed,
   not the service notified). *)
let admit_service t ~guarantee ~optimistic =
  match Frames.admit t.the_frames ~domain:t.next_id ~guarantee ~optimistic with
  | Error e -> Error (Frames_admission e)
  | Ok client ->
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    Ok (id, client)

(* Bind an application-built stretch driver (the CoW and shared-segment
   drivers of [lib/share] compose existing drivers rather than coming
   from a factory). Replaces any existing binding for the stretch's
   sid, so an outer driver can interpose on one bound moments before. *)
let bind_driver d s driver = Mm_entry.bind d.mm s driver

(* Fork a tenant from a template domain: a fresh domain admitted under
   the template's resource envelope (CPU period/slice, frame
   guarantee/optimistic) but its own name. What "forking the paged
   stretch" means is the caller's business — [fork] receives the new
   domain and builds its address space (lib/share's spawn_cow attaches
   the CoW driver there); if it fails the half-built domain is
   killed. *)
let spawn_cow t ~template ~name ~fork =
  let sp = template.dspec in
  match
    add_domain t ~name ~cpu_period:sp.sp_cpu_period
      ~cpu_slice:sp.sp_cpu_slice ~guarantee:sp.sp_guarantee
      ~optimistic:sp.sp_optimistic ()
  with
  | Error e -> Error e
  | Ok d -> (
    match fork d with
    | Ok x -> Ok (d, x)
    | Error e ->
      Domains.kill d.dom;
      Error e)

(* Re-admit a killed domain under its original contract: same name,
   same CPU period/slice, same frame guarantee — a fresh Domains.t and
   protection domain, the resource envelope of the old incarnation. *)
let respawn t sp =
  add_domain t ~name:sp.sp_name ~cpu_period:sp.sp_cpu_period
    ~cpu_slice:sp.sp_cpu_slice ~guarantee:sp.sp_guarantee
    ~optimistic:sp.sp_optimistic ()

let alloc_stretch d ?base ?global ~bytes () =
  Stretch_allocator.alloc d.sys.salloc ?base ?global
    ~owner_pdom:(Domains.pdom d.dom) ~owner:(Domains.id d.dom) ~bytes ()

let free_stretch d s =
  Mm_entry.unbind d.mm s;
  Stretch_allocator.destroy d.sys.salloc s

let bind_nailed d s =
  match Sd_nailed.create d.env with
  | Error reason -> Error (Driver_error { reason })
  | Ok driver ->
    Mm_entry.bind d.mm s driver;
    Ok driver

let bind_physical d ?prealloc s =
  match Sd_physical.create ?prealloc d.env with
  | Error reason -> Error (Driver_error { reason })
  | Ok driver ->
    Mm_entry.bind d.mm s driver;
    Ok driver

(* The step every paging bind shares: create a paged driver over
   [backing], bind it and make [release] the domain's kill hook. If
   the driver cannot be created, [abandon] runs instead. *)
let bind_over d ?forgetful ?initial_frames ?policy ?restore ~backing
    ~abandon ~release s =
  match
    Sd_paged.create ?forgetful ?initial_frames ?policy ?restore ~backing d.env
  with
  | Error reason ->
    abandon ();
    Error (Driver_error { reason })
  | Ok (driver, h) ->
    Mm_entry.bind d.mm s driver;
    Domains.on_kill d.dom release;
    Ok (driver, h)

let bind_paged d ?forgetful ?initial_frames ?policy ?spare_pages
    ?(restartable = false) ?backing ~swap_bytes ~qos s () =
  let swap_name = Domains.name d.dom ^ ".swap" in
  let sfs = d.sys.the_sfs in
  match
    Usbs.Sfs.open_swap sfs ~name:swap_name ~bytes:swap_bytes ~qos
      ?spare_pages ()
  with
  | Error e -> Error (Swap_open { name = swap_name; error = e })
  | Ok swap ->
    (* [backing] sees the just-opened swapfile so it can layer a tiered
       store over it; the swapfile's lifecycle stays System's. A
       restartable domain's swapfile survives its death detached — the
       name, extent and recovered metadata stay registered so a
       respawned incarnation can reattach and restore. *)
    bind_over d ?forgetful ?initial_frames ?policy
      ~backing:
        (match backing with
        | Some f -> f swap
        | None -> Tier.Backing.of_sfs swap)
      ~abandon:(fun () -> Usbs.Sfs.close_swap sfs swap)
      ~release:(fun () ->
        if restartable then Usbs.Sfs.detach_swap sfs swap
        else Usbs.Sfs.close_swap sfs swap)
      s

(* Restart path: reattach the swapfile the previous incarnation left
   detached (same domain name, so same swap name), restore the
   journal-committed (page, slot) image into a fresh paged driver, and
   bind. The restored pages start [Swapped] and fault back in from
   swap on first touch. *)
let bind_paged_restored d ?initial_frames ?policy ~qos s () =
  let name = Domains.name d.dom ^ ".swap" in
  match Usbs.Sfs.reattach_swap d.sys.the_sfs ~name ~qos with
  | Error `Unknown -> Error (No_detached_swap { name })
  | Error `Attached -> Error (Swap_attached { name })
  | Error (`Sfs reason) -> Error (Store_error { reason })
  | Ok (swap, restore) ->
    let detach () = Usbs.Sfs.detach_swap d.sys.the_sfs swap in
    bind_over d ?initial_frames ?policy ~restore
      ~backing:(Tier.Backing.of_sfs swap) ~abandon:detach ~release:detach s

type mapping = Shared | Private

(* A mapped file is the paged driver over the file: every page starts
   on the backing at its own slot, and a private mapping overlays an
   anonymous copy file. *)
let bind_mapped d ~mode ?initial_frames ~file ~qos s () =
  let dom_name = Domains.name d.dom in
  let usd = d.sys.the_usd and store = d.sys.the_store in
  match
    Usbs.Usd.admit usd
      ~name:(dom_name ^ "." ^ Usbs.File_store.file_name file) ~qos ()
  with
  | Error reason -> Error (Usd_admission { reason })
  | Ok client -> (
    let retire () = Usbs.Usd.retire usd client in
    let copy =
      match mode with
      | Shared -> Ok None
      | Private -> (
        match
          Usbs.File_store.create_file store
            ~name:(Printf.sprintf "%s.cow.%d" dom_name s.Stretch.sid)
            ~bytes:s.Stretch.bytes
        with
        | Ok cow ->
          let env = d.env in
          Ok
            (Some
               ( cow,
                 fun () ->
                   env.Stretch_driver.consume_cpu
                     env.Stretch_driver.cost.Cost.page_copy ))
        | Error reason -> Error (Store_error { reason }))
    in
    match copy with
    | Error e ->
      retire ();
      Error e
    | Ok copy ->
      (* The copy file dies with the mapping, once no transaction of
         the domain's can reach it. *)
      let release () =
        retire ();
        Option.iter (fun (cow, _) -> Usbs.File_store.delete store cow) copy
      in
      let npages = Stretch.npages s in
      let backing, io =
        Tier.Backing.of_file store ~client file ~npages ~copy
      in
      bind_over d ?initial_frames
        ~restore:(List.init npages (fun p -> (p, p)))
        ~backing ~abandon:release ~release s
      |> Result.map (fun (driver, _) -> (driver, io)))
