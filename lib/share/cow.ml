open Engine
open Hw
open Core

(* Copy-on-write stretch sharing: a template domain's paged stretch is
   frozen — its resident pages surrendered to the share registry — and
   each forked tenant maps those frames read-only through its own
   PTEs. The CoW driver interposes on a full Sd_paged stack: reads of
   template pages resolve on the fast path to a shared mapping; the
   first write breaks the share (a private frame obtained, paid for
   and accounted through the inner driver), after which the page lives
   entirely in the inner pager — evicted, cleaned and revoked like any
   other.

   Protection encodes the state per page in the global (per-PTE)
   rights: template-backed pages start {r,m} so ANY write raises
   Access_violation (the MMU checks rights before validity), which is
   the CoW driver's cue; broken/private pages are upgraded to rw+meta
   and never reach this driver's write handler again. *)

let cow_rights = { Rights.r = true; w = false; x = false; m = true }

(* -- template --------------------------------------------------------- *)

type template = {
  tpl_name : string;
  tpl_reg : Registry.t;
  tpl_npages : int;
  tpl_frames : int option array;  (* template page -> shared pfn *)
}

let shared_frames t =
  Array.fold_left (fun a f -> if f = None then a else a + 1) 0 t.tpl_frames

(* Freeze: settle + surrender the template's resident pages and move
   their frames to the share host's stack, so the template domain's
   own death (Frames.retire would force-release its stack) can never
   reclaim a frame tenants still map. Pages that were not resident —
   never touched, or evicted to swap — simply have no shared frame;
   tenants fault those through their own inner pager. *)
let freeze ~reg ~name (d : System.domain) (handle : Sd_paged.handle)
    ~npages =
  let t =
    { tpl_name = name; tpl_reg = reg; tpl_npages = npages;
      tpl_frames = Array.make npages None }
  in
  let surrendered = Sd_paged.surrender_resident handle in
  List.iter
    (fun (page, pfn) ->
      if page < npages then
        match
          Registry.adopt_frame reg ~src:d.System.frames_client ~pfn
            ~on_free:(fun () -> t.tpl_frames.(page) <- None)
        with
        | Ok () -> t.tpl_frames.(page) <- Some pfn
        | Error _ -> ())
    surrendered;
  t

(* -- tenant ----------------------------------------------------------- *)

type status = Untouched | Shared | Private

type tenant = {
  c_env : Stretch_driver.env;
  c_tpl : template;
  c_inner : Stretch_driver.t;
  c_handle : Sd_paged.handle;
  mutable c_stretch : Stretch.t option;
  mutable c_status : status array;
  mutable c_breaks : int;
  mutable c_shared_faults : int;
  mutable c_detached : int;
  (* counters labelled with the tenant's domain *)
  c_shared_metric : Obs.Metrics.counter;
  c_break_metric : Obs.Metrics.counter;
}

exception Not_bound of { driver : string }

(* Typed per the PR 5 convention; the printer renders the exact
   string the old [failwith] escape produced. *)
let () =
  Printexc.register_printer (function
    | Not_bound { driver } -> Some (driver ^ ": driver not bound")
    | _ -> None)

let the_stretch c =
  match c.c_stretch with
  | Some s -> s
  | None -> raise (Not_bound { driver = "Cow" })

let metric c = if !Obs.enabled then Obs.Metrics.inc c
let m_break_us = Obs.Metrics.histogram "share.break_us"

(* Map a template frame read-only into the tenant (the fast path of a
   read fault on an untouched template page). *)
let map_template c page =
  match c.c_tpl.tpl_frames.(page) with
  | None -> false
  | Some pfn ->
    let va = Stretch.page_base (the_stretch c) page in
    (match
       Registry.map c.c_tpl.tpl_reg ~pdom:c.c_env.Stretch_driver.pdom ~va
         ~pfn ~charge:c.c_env.Stretch_driver.consume_cpu
     with
    | Ok () ->
      c.c_status.(page) <- Shared;
      c.c_shared_faults <- c.c_shared_faults + 1;
      metric c.c_shared_metric;
      true
    | Error _ -> false)

(* Upgrade one page to private rights (rw + meta): after this, writes
   never reach the CoW driver again. *)
let go_private c page =
  let env = c.c_env in
  let va = Stretch.page_base (the_stretch c) page in
  (match
     Translation.protect_range env.Stretch_driver.translation
       ~pdom:env.Stretch_driver.pdom ~base:va ~npages:1 Rights.rw_meta
   with
  | Ok cost -> env.Stretch_driver.consume_cpu cost
  | Error _ -> ());
  if page < Array.length c.c_status then c.c_status.(page) <- Private

(* Break the share for [page]: obtain a frame by the inner pager's
   full means (pool, allocator, eviction — paid for exactly like a
   page-in), copy the template contents, drop the shared reference and
   hand the private copy to the inner driver. *)
let break_share c page ~was_shared =
  let env = c.c_env in
  let t0 = Sim.now (Proc.current_sim ()) in
  match Sd_paged.obtain c.c_handle with
  | None -> Stretch_driver.Failure "cow break: out of frames"
  | Some pfn ->
    let va = Stretch.page_base (the_stretch c) page in
    (* the copy itself: modelled at page-zero cost *)
    env.Stretch_driver.consume_cpu env.Stretch_driver.cost.Cost.page_zero;
    if was_shared then
      ignore
        (Registry.unmap c.c_tpl.tpl_reg ~pdom:env.Stretch_driver.pdom ~va
           ~reason:`Break ~charge:env.Stretch_driver.consume_cpu);
    go_private c page;
    Stretch_driver.map_page env va ~pfn;
    Sd_paged.adopt c.c_handle ~page ~pfn;
    c.c_breaks <- c.c_breaks + 1;
    metric c.c_break_metric;
    if !Obs.enabled then
      Obs.Metrics.observe m_break_us
        (Time.to_us (Time.diff (Sim.now (Proc.current_sim ())) t0));
    Stretch_driver.Success

let in_template c page = page >= 0 && page < c.c_tpl.tpl_npages

let page_of c (fault : Fault.t) =
  let s = the_stretch c in
  if Stretch.contains s fault.Fault.va then
    Some (Stretch.page_index s fault.Fault.va)
  else None

let fast c (fault : Fault.t) =
  match page_of c fault with
  | None -> c.c_inner.Stretch_driver.fast fault
  | Some page ->
    (match (fault.Fault.kind, fault.Fault.access) with
    | Mmu.Access_violation, `Write -> Stretch_driver.Retry (* worker breaks *)
    | Mmu.Page_fault, (`Read | `Execute)
      when in_template c page && c.c_status.(page) = Untouched ->
      if map_template c page then Stretch_driver.Success
      else c.c_inner.Stretch_driver.fast fault
    | _ -> c.c_inner.Stretch_driver.fast fault)

let full c (fault : Fault.t) =
  match page_of c fault with
  | None -> c.c_inner.Stretch_driver.full fault
  | Some page ->
    (match (fault.Fault.kind, fault.Fault.access) with
    | Mmu.Access_violation, `Write ->
      (match c.c_status.(page) with
      | Shared -> break_share c page ~was_shared:true
      | Untouched when in_template c page && c.c_tpl.tpl_frames.(page) <> None
        ->
        (* first touch is a write: private copy, no shared interlude *)
        break_share c page ~was_shared:false
      | Untouched | Private ->
        (* not template-backed (or the template page was never
           resident): just lift the rights; the retried access
           page-faults into the inner pager *)
        go_private c page;
        Stretch_driver.Success)
    | Mmu.Page_fault, (`Read | `Execute)
      when in_template c page && c.c_status.(page) = Untouched ->
      if map_template c page then Stretch_driver.Success
      else c.c_inner.Stretch_driver.full fault
    | _ -> c.c_inner.Stretch_driver.full fault)

(* Detach every surviving shared mapping (kill hook — runs before the
   domain's frames contract is retired, so the registry's books stay
   balanced when a tenant dies mid-share). *)
let detach c =
  match c.c_stretch with
  | None -> ()
  | Some s ->
    Array.iteri
      (fun page st ->
        if st = Shared then begin
          let va = Stretch.page_base s page in
          ignore
            (Registry.unmap c.c_tpl.tpl_reg
               ~pdom:c.c_env.Stretch_driver.pdom ~va ~reason:`Detach
               ~charge:ignore);
          c.c_status.(page) <- Untouched;
          c.c_detached <- c.c_detached + 1
        end)
      c.c_status

type stats = {
  c_stat_breaks : int;
  c_stat_shared_faults : int;
  c_stat_detached : int;
  c_stat_shared_now : int;
}

let stats c =
  { c_stat_breaks = c.c_breaks;
    c_stat_shared_faults = c.c_shared_faults;
    c_stat_detached = c.c_detached;
    c_stat_shared_now =
      Array.fold_left (fun a s -> if s = Shared then a + 1 else a) 0
        c.c_status }

(* Build the interposing driver over an already-bound inner stack.
   [bind] only records the stretch — the inner driver was bound (and
   its own [bind] run) by [System.bind_paged] a moment earlier. *)
let driver c =
  { Stretch_driver.name =
      Printf.sprintf "cow(%s over %s)" c.c_tpl.tpl_name
        c.c_inner.Stretch_driver.name;
    bind =
      (fun s ->
        c.c_stretch <- Some s;
        if Array.length c.c_status <> Stretch.npages s then
          c.c_status <- Array.make (Stretch.npages s) Untouched);
    fast = (fun f -> fast c f);
    full = (fun f -> full c f);
    relinquish =
      (fun ~want -> c.c_inner.Stretch_driver.relinquish ~want);
    resident_pages =
      (fun () ->
        c.c_inner.Stretch_driver.resident_pages ()
        + Array.fold_left
            (fun a s -> if s = Shared then a + 1 else a)
            0 c.c_status);
    free_frames = (fun () -> c.c_inner.Stretch_driver.free_frames ()) }

(* Fork a CoW tenant: fresh domain under the template's envelope, a
   stretch of the same geometry mapped {r,m} (so writes trap), a full
   inner paged stack of its own (swap file, policy, zram tier if
   [backing] says so) and the CoW driver interposed on top. *)
let spawn sys ~template:(tpl : template) ~tpl_domain ~name ?backing
    ?initial_frames ~npages ~swap_bytes ~qos () =
  System.spawn_cow sys ~template:tpl_domain ~name ~fork:(fun d ->
      match
        System.alloc_stretch d ~global:cow_rights
          ~bytes:(npages * Addr.page_size) ()
      with
      | Error msg -> Error (System.Driver_error { reason = msg })
      | Ok stretch ->
        (* default stretch rights come from the pdom: clear the
           override so the per-PTE global rights ({r,m} now, rw+meta
           after a break) are what the MMU checks. *)
        Pdom.clear (Domains.pdom d.System.dom) ~sid:stretch.Stretch.sid;
        (match
           System.bind_paged d ?backing ?initial_frames ~swap_bytes ~qos
             stretch ()
         with
        | Error e -> Error e
        | Ok (inner, handle) ->
          let counter =
            Obs.Metrics.counter ~label:d.System.env.Stretch_driver.domain_name
          in
          let c =
            { c_env = d.System.env; c_tpl = tpl; c_inner = inner;
              c_handle = handle; c_stretch = None;
              c_status = Array.make (Stretch.npages stretch) Untouched;
              c_breaks = 0; c_shared_faults = 0; c_detached = 0;
              c_shared_metric = counter "share.cow_shared";
              c_break_metric = counter "share.cow_break" }
          in
          System.bind_driver d stretch (driver c);
          Domains.on_kill d.System.dom (fun () -> detach c);
          Ok (c, stretch)))
