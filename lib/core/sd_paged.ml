open Hw

(* Residency state of one page of the stretch.

   [dirty_latched] accumulates dirty bits lost to reference-sampling:
   policies that clear the referenced bit do so by unmap+remap, which
   discards the PTE's dirty bit, so it is latched here. [via_prefetch]
   marks a page brought in by read-ahead whose first reference has not
   been observed yet — resolved to a hit or a waste at the first
   reference-sample or at eviction. *)
type pstate =
  | Fresh  (* no contents yet: demand-zero on touch *)
  | Resident of {
      pfn : int;
      clean_on_disk : bool;
      mutable dirty_latched : bool;
      mutable via_prefetch : bool;
    }
  | Wb_pending of { pfn : int }
      (* evicted dirty, parked in the write-behind buffer: the frame
         still holds the only up-to-date copy until the flush *)
  | Swapped
  | Lost
      (* contents unrecoverable: the backing bloks went bad and every
         recovery rung (retry, spare remap, re-blok) was exhausted; a
         fault on the page is a domain fault *)

type info = {
  page_ins : int;
  page_outs : int;
  demand_zeros : int;
  evictions : int;
  prefetched : int;
  prefetch_hits : int;
  prefetch_waste : int;
  wb_flushes : int;
  rescues : int;
  lost_pages : int;
  rebloks : int;
  shed_frames : int;
  restored_pages : int;
  wb_degraded : bool;
  swap_exhausted : bool;
  crashed : bool;
}

type state = {
  env : Stretch_driver.env;
  swap : Usbs.Sfs.swapfile;
  (* every data-path transaction goes through [backing]; the default
     ([Tier.Backing.of_sfs swap]) is the swapfile itself, bit-for-bit.
     [swap] stays for identity (journal reattach, extent scoping). *)
  backing : Tier.Backing.t;
  forgetful : bool;
  spec : Policy.Spec.t;
  repl : Policy.Replacement.t;
  pf : Policy.Prefetch.t;
  mutable wb : Policy.Writeback.t;
  bitmap : Bloks.t;
  mutable stretch : Stretch.t option;
  mutable pages : pstate array;       (* per page of the stretch *)
  mutable blok_of_page : int array;   (* -1 = none assigned *)
  mutable pool : int list;            (* owned, unmapped frames *)
  mutable tick : int;                 (* per-domain virtual time *)
  mutable page_ins : int;
  mutable page_outs : int;
  mutable demand_zeros : int;
  mutable evictions : int;
  mutable prefetched : int;
  mutable prefetch_hits : int;
  mutable prefetch_waste : int;
  mutable rescues : int;
  mutable lost_pages : int;
  mutable rebloks : int;
  mutable shed : int;
  (* Degradations (sticky): [degraded_sync] disables write-behind
     parking after a flush lost data; [swap_exhausted] marks the blok
     bitmap dry — only clean victims can yield frames, and the driver
     stops holding optimistic pool frames. *)
  mutable degraded_sync : bool;
  mutable swap_exhausted : bool;
  (* Crash consistency (journaled backing store only): [restore] is
     the committed (page, slot) image a restarted domain re-adopts at
     bind; [retiring] maps a page to the committed slot its in-flight
     out-of-place rewrite supersedes (freed when the rewrite commits);
     [crashed] latches when a crash point tears one of our writes —
     the backing store is gone mid-operation and every later fault is
     a domain fault (the reaper then kills the domain). *)
  restore : (int * int) list;
  retiring : (int, int) Hashtbl.t;
  mutable restored : int;
  mutable crashed : bool;
  m : metrics;
}

(* The driver's telemetry handles, labelled with its domain's name. *)
and metrics = {
  policy_page_in : Obs.Metrics.counter;
  policy_page_out : Obs.Metrics.counter;
  policy_evict : Obs.Metrics.counter;
  policy_rescue : Obs.Metrics.counter;
  policy_prefetched : Obs.Metrics.counter;
  policy_prefetch_hit : Obs.Metrics.counter;
  policy_prefetch_waste : Obs.Metrics.counter;
  policy_wb_flush : Obs.Metrics.counter;
  sd_lost_faults : Obs.Metrics.counter;
  sd_lost_pages : Obs.Metrics.counter;
  sd_rebloks : Obs.Metrics.counter;
  sd_shed_frames : Obs.Metrics.counter;
  sd_restored_pages : Obs.Metrics.counter;
  sd_swap_exhausted : Obs.Metrics.counter;
  sd_wb_degraded : Obs.Metrics.counter;
  sd_crashed : Obs.Metrics.counter;
}

let metrics label =
  let c = Obs.Metrics.counter ~label in
  { policy_page_in = c "policy.page_in";
    policy_page_out = c "policy.page_out";
    policy_evict = c "policy.evict";
    policy_rescue = c "policy.rescue";
    policy_prefetched = c "policy.prefetched";
    policy_prefetch_hit = c "policy.prefetch_hit";
    policy_prefetch_waste = c "policy.prefetch_waste";
    policy_wb_flush = c "policy.wb_flush";
    sd_lost_faults = c "sd.lost_faults";
    sd_lost_pages = c "sd.lost_pages";
    sd_rebloks = c "sd.rebloks";
    sd_shed_frames = c "sd.shed_frames";
    sd_restored_pages = c "sd.restored_pages";
    sd_swap_exhausted = c "sd.swap_exhausted";
    sd_wb_degraded = c "sd.wb_degraded";
    sd_crashed = c "sd.crashed" }

(* Write-behind is in force only while it has not been degraded away. *)
let wb_on st = Policy.Writeback.enabled st.wb && not st.degraded_sync

let stack st = Frames.frame_stack st.env.Stretch_driver.frames_client

(* Span helpers: driver code always runs on some domain's process, so
   the current process's simulation clock is the right one. *)
let span_start st ~parent sname =
  if !Obs.enabled then
    Obs.Span.start
      ~now:(Engine.Sim.now (Engine.Proc.current_sim ()))
      ~label:st.env.Stretch_driver.domain_name ~parent sname
  else Obs.Span.none

let span_finish sp =
  if sp != Obs.Span.none then
    Obs.Span.finish ~now:(Engine.Sim.now (Engine.Proc.current_sim ())) sp

let metric_inc c = if !Obs.enabled then Obs.Metrics.inc c

let metric_add c n = if n > 0 && !Obs.enabled then Obs.Metrics.add c n

(* The injector's recovery classes for this driver's sites. *)
let reblok_class = Inject.recovery "sd.reblok"
let write_class = Inject.recovery "sd.write"
let wb_class = Inject.recovery "sd.wb"

(* Bind-time failwiths: faulting before bind, binding twice, or
   binding a stretch larger than the swap are wiring bugs in the
   domain that created the driver. Run-time store errors, by
   contrast, flow through the typed degradation path. *)
let the_stretch st =
  match st.stretch with
  | Some s -> s
  | None -> failwith "paged driver: no stretch bound"

let take_pool st =
  match st.pool with
  | [] -> None
  | pfn :: rest ->
    st.pool <- rest;
    Some pfn

let bind st (s : Stretch.t) =
  if st.stretch <> None then
    failwith "paged driver: already bound to a stretch";
  let npages = Stretch.npages s in
  if st.backing.Tier.Backing.page_capacity () < npages then
    failwith
      (Printf.sprintf
         "paged driver: swap too small (%d pages) for stretch (%d pages)"
         (st.backing.Tier.Backing.page_capacity ())
         npages);
  st.stretch <- Some s;
  st.pages <- Array.make npages Fresh;
  st.blok_of_page <- Array.make npages (-1);
  (* Restart: re-adopt the committed (page, slot) image recovered from
     the journal — the pages start Swapped and fault back in from the
     swapfile; their slots are claimed out of the fresh bitmap. *)
  List.iter
    (fun (p, b) ->
      if
        p >= 0 && p < npages
        && b >= 0
        && b < Bloks.capacity st.bitmap
        && Bloks.claim st.bitmap b
      then begin
        st.pages.(p) <- Swapped;
        st.blok_of_page.(p) <- b;
        st.restored <- st.restored + 1
      end)
    st.restore;
  if st.restored > 0 then metric_add st.m.sd_restored_pages st.restored

let owns_fault st (fault : Fault.t) =
  match (fault.sid, st.stretch) with
  | Some sid, Some s -> s.Stretch.sid = sid
  | _ -> false

(* A prefetched page's fate is decided at the first point we observe
   its referenced bit (a reference-sampling pass or its eviction). *)
let settle_prefetch st p referenced =
  match st.pages.(p) with
  | Resident r when r.via_prefetch && referenced ->
    r.via_prefetch <- false;
    st.prefetch_hits <- st.prefetch_hits + 1;
    metric_inc st.m.policy_prefetch_hit
  | _ -> ()

(* The window through which replacement policies see the hardware:
   referenced bits live in the PTEs; clearing one is the user-level
   unmap+remap dance (which re-arms FOR/FOW), charged to the domain. *)
let make_probe st =
  let env = st.env in
  { Policy.Replacement.resident =
      (fun p ->
        match st.pages.(p) with Resident _ -> true | _ -> false);
    referenced =
      (fun p ->
        match st.pages.(p) with
        | Resident _ ->
          let va = Stretch.page_base (the_stretch st) p in
          let pte, cost = Translation.trans env.Stretch_driver.translation ~va in
          env.Stretch_driver.consume_cpu cost;
          Pte.referenced pte
        | _ -> false);
    clear_referenced =
      (fun p ->
        match st.pages.(p) with
        | Resident r ->
          let va = Stretch.page_base (the_stretch st) p in
          let pte = Stretch_driver.unmap_page env va in
          if Pte.dirty pte then r.dirty_latched <- true;
          settle_prefetch st p (Pte.referenced pte);
          Stretch_driver.map_page env va ~pfn:r.pfn
        | _ -> ()) }

(* Map [page] into [pfn] as a demand-zeroed page. *)
let install_zero st page pfn =
  let env = st.env in
  let va = Stretch.page_base (the_stretch st) page in
  Stretch_driver.map_page env va ~pfn;
  env.Stretch_driver.consume_cpu env.Stretch_driver.cost.Cost.page_zero;
  st.pages.(page) <-
    Resident
      { pfn; clean_on_disk = false; dirty_latched = false;
        via_prefetch = false };
  st.repl.Policy.Replacement.insert page;
  st.tick <- st.tick + 1;
  Frame_stack.move_to_bottom (stack st) pfn;
  st.demand_zeros <- st.demand_zeros + 1

let note_swap_exhausted st =
  if not st.swap_exhausted then begin
    st.swap_exhausted <- true;
    metric_inc st.m.sd_swap_exhausted
  end

(* Ensure the page has a blok assigned (first-fit from the bitmap).
   [None] means the bitmap is dry — the typed replacement for the old
   "swap space exhausted" abort; callers degrade instead of dying.

   Out-of-place rule (journaled backing store): a blok whose slot is
   covered by a journal Commit record is never overwritten in place —
   a torn write would destroy the only durable copy. The rewrite goes
   to a fresh blok; the committed one is parked in [retiring] and
   freed only once the new write's Commit record has landed. *)
let blok_for st page =
  let fresh () =
    match Bloks.alloc st.bitmap with
    | Some b -> Some b
    | None ->
      note_swap_exhausted st;
      None
  in
  let b = st.blok_of_page.(page) in
  if b < 0 then begin
    match fresh () with
    | Some b ->
      st.blok_of_page.(page) <- b;
      Some b
    | None -> None
  end
  else if st.backing.Tier.Backing.slot_committed b then begin
    match fresh () with
    | Some b' ->
      Hashtbl.replace st.retiring page b;
      st.blok_of_page.(page) <- b';
      Some b'
    | None -> None
  end
  else Some b

(* The retiring pairs a committing write of [pages] must carry, and
   their release (bitmap free) once that write has committed. *)
let retire_for st pages =
  List.filter_map
    (fun p ->
      match Hashtbl.find_opt st.retiring p with
      | Some old -> Some (p, old)
      | None -> None)
    pages

let release_retired st pages =
  List.iter
    (fun p ->
      match Hashtbl.find_opt st.retiring p with
      | Some old ->
        Hashtbl.remove st.retiring p;
        Bloks.free st.bitmap old
      | None -> ())
    pages

let note_crashed st =
  if not st.crashed then begin
    st.crashed <- true;
    metric_inc st.m.sd_crashed
  end

(* Invert [blok_of_page] over a write-behind run: the (page, slot)
   assignment pairs a committing flush must record. *)
let pages_for_run st ~blok ~nbloks =
  let acc = ref [] in
  Array.iteri
    (fun p b -> if b >= blok && b < blok + nbloks then acc := (p, b) :: !acc)
    st.blok_of_page;
  List.sort (fun (_, a) (_, b) -> compare a b) !acc

let mark_lost st page =
  st.pages.(page) <- Lost;
  st.lost_pages <- st.lost_pages + 1;
  metric_inc st.m.sd_lost_pages

(* Write [page]'s blok synchronously, re-blokking around bad bloks: a
   write that exhausts the USBS recovery ladder (retries, spare
   remaps) abandons the bad blok — it is never returned to the
   bitmap — takes a fresh one and rewrites from the still-held frame.
   Returns [false] when the bitmap too is dry and the contents are
   unrecoverable (the caller marks the page [Lost]). *)
let write_now st ~page blok =
  st.env.Stretch_driver.assert_idc_allowed "USBS write";
  let journaled = st.backing.Tier.Backing.journaled () in
  let rec go blok =
    let sp = span_start st ~parent:Obs.Span.none "usd.write" in
    let r =
      if journaled then
        st.backing.Tier.Backing.write_pages_commit ~page_index:blok ~npages:1
          ~pages:[ (page, blok) ] ~retire:(retire_for st [ page ])
      else st.backing.Tier.Backing.write_page ~page_index:blok
    in
    span_finish sp;
    match r with
    | Ok () ->
      if journaled then release_retired st [ page ];
      st.page_outs <- st.page_outs + 1;
      metric_inc st.m.policy_page_out;
      true
    | Error `Retired -> false
    | Error `Crashed ->
      note_crashed st;
      false
    | Error (`Lost_pages _) -> (
      match Bloks.alloc st.bitmap with
      | Some b' ->
        st.blok_of_page.(page) <- b';
        st.rebloks <- st.rebloks + 1;
        Inject.note_remapped reblok_class;
        metric_inc st.m.sd_rebloks;
        go b'
      | None ->
        note_swap_exhausted st;
        Inject.note_killed write_class;
        false)
  in
  go blok

(* Issue every parked write-behind entry (coalesced by the buffer into
   contiguous USD transactions) and return the freed frames to the
   pool. A page's state flips to Swapped at the commit point — the
   instant its run's write is issued, not when the whole flush
   returns — so pages in runs not yet written stay Wb_pending and
   rescuable while earlier runs block on disk. Flipping at issue time
   is sound because one client's USD requests are served FIFO: a fault
   that then reads the page queues its read behind the in-flight write
   and cannot observe stale disk contents. The frame returns to the
   pool only once its run's write has completed (it is pinned while
   the "DMA" is in flight). Blocking (disk I/O): worker-thread context
   only; safe to run concurrently from the fault and revocation
   workers (each flush iteration claims a disjoint run). *)
let flush_wb st =
  if Policy.Writeback.pending st.wb > 0 then begin
    st.env.Stretch_driver.assert_idc_allowed "USBS write";
    ignore
      (Policy.Writeback.flush st.wb
         ~commit:(fun ~page ->
           st.pages.(page) <- (if st.forgetful then Fresh else Swapped))
         ~release:(fun ~page:_ ~frame -> st.pool <- frame :: st.pool))
  end

type evicted = No_victim | Freed of int | Parked | Swap_full

(* Non-destructive "would cleaning be needed" probe (costed like any
   other PTE inspection). *)
let needs_clean st (r : pstate) victim =
  match r with
  | Resident r ->
    st.forgetful || r.dirty_latched
    || (not r.clean_on_disk)
    ||
    let env = st.env in
    let va = Stretch.page_base (the_stretch st) victim in
    let pte, cost = Translation.trans env.Stretch_driver.translation ~va in
    env.Stretch_driver.consume_cpu cost;
    Pte.dirty pte
  | _ -> false

(* Evict the policy's victim, cleaning it to the USBS first if needed
   (immediately, or by parking it in the write-behind buffer), and
   hand back its frame if one came free. [clean_only] is the prefetch
   caller's flag: a victim that would only be *parked* (write-behind
   enabled, needs cleaning) yields no frame now, so eviction would
   cost a resident page for nothing — pre-check its dirtiness
   non-destructively and leave it resident instead. [no_clean] is the
   swap-exhaustion degradation's flag: with the blok bitmap dry only
   victims needing no cleaning can be evicted at all, whatever the
   write-behind setting. Blocking (disk I/O): worker-thread context
   only. *)
let evict_one ?(clean_only = false) ?(no_clean = false) st =
  let env = st.env in
  match st.repl.Policy.Replacement.victim (make_probe st) with
  | None -> No_victim
  | Some victim ->
    (match st.pages.(victim) with
    | Resident _
      when (clean_only && wb_on st && needs_clean st st.pages.(victim) victim)
           || (no_clean && needs_clean st st.pages.(victim) victim) ->
      (* Re-insert: the policy sees the page as freshly mapped — cheap
         protection for a page we just chose not to lose. *)
      st.repl.Policy.Replacement.insert victim;
      No_victim
    | Resident r ->
      let va = Stretch.page_base (the_stretch st) victim in
      let pte = Stretch_driver.unmap_page env va in
      settle_prefetch st victim (Pte.referenced pte);
      let dirty = Pte.dirty pte || r.dirty_latched in
      let must_clean = st.forgetful || dirty || not r.clean_on_disk in
      let decision =
        if not must_clean then `Clean_already
        else
          match blok_for st victim with
          | Some b -> `Clean_to b
          | None -> `Exhausted
      in
      (match decision with
      | `Exhausted ->
        (* Swap space exhausted: the victim cannot be cleaned, so it
           cannot be evicted either — remap it and tell the caller to
           degrade (clean-only eviction, shedding) instead of dying. *)
        if Pte.dirty pte then r.dirty_latched <- true;
        Stretch_driver.map_page env va ~pfn:r.pfn;
        st.repl.Policy.Replacement.insert victim;
        Swap_full
      | (`Clean_already | `Clean_to _) as decision ->
        (match st.pages.(victim) with
        | Resident { via_prefetch = true; _ } ->
          st.prefetch_waste <- st.prefetch_waste + 1;
          metric_inc st.m.policy_prefetch_waste
        | _ -> ());
        metric_inc st.m.policy_evict;
        (match decision with
        | `Clean_to blok ->
          if wb_on st then begin
            st.evictions <- st.evictions + 1;
            st.pages.(victim) <- Wb_pending { pfn = r.pfn };
            Policy.Writeback.enqueue st.wb ~page:victim ~blok ~frame:r.pfn;
            Parked
          end
          else begin
            let ok = write_now st ~page:victim blok in
            st.evictions <- st.evictions + 1;
            (* The paging-out experiment's driver forgets the disk
               copy; a failed write loses the contents but still
               frees the frame. *)
            if st.forgetful then st.pages.(victim) <- Fresh
            else if ok then st.pages.(victim) <- Swapped
            else mark_lost st victim;
            Freed r.pfn
          end
        | `Clean_already ->
          st.evictions <- st.evictions + 1;
          st.pages.(victim) <- Swapped;
          Freed r.pfn))
    | Fresh | Swapped | Wb_pending _ | Lost ->
      (* The policy's probe guarantees victims are resident. *)
      No_victim)

(* Read-your-writes fast path: a fault on a parked page cancels the
   pending write and remaps the very frame that holds the data — no
   disk I/O. The page is still dirty, so it stays clean_on_disk:false
   and will be cleaned again on its next eviction. *)
let try_rescue st page =
  match st.pages.(page) with
  | Wb_pending { pfn } ->
    (match Policy.Writeback.rescue st.wb ~page with
    | Some _ ->
      let va = Stretch.page_base (the_stretch st) page in
      Stretch_driver.map_page st.env va ~pfn;
      st.pages.(page) <-
        Resident
          { pfn; clean_on_disk = false; dirty_latched = true;
            via_prefetch = false };
      st.repl.Policy.Replacement.insert page;
      st.tick <- st.tick + 1;
      Frame_stack.move_to_bottom (stack st) pfn;
      st.rescues <- st.rescues + 1;
      metric_inc st.m.policy_rescue;
      true
    | None -> false)
  | _ -> false

let fast st (fault : Fault.t) =
  if not (owns_fault st fault) then
    Stretch_driver.Failure "fault outside bound stretch"
  else
    match fault.kind with
    | Mmu.Access_violation -> Stretch_driver.Failure "access violation"
    | Mmu.Unallocated -> Stretch_driver.Failure "unallocated address"
    | Mmu.Page_fault when st.crashed ->
      (* The backing store tore one of our writes mid-operation: the
         domain's durable state is unrecoverable until remount +
         restart, so every fault is a domain fault from here on. *)
      Stretch_driver.Failure "backing store crashed"
    | Mmu.Page_fault ->
      let page = Stretch.page_index (the_stretch st) fault.va in
      (match st.pages.(page) with
      | Resident _ ->
        (* Raced with another thread's fault on the same page. *)
        Stretch_driver.Success
      | Wb_pending _ ->
        if try_rescue st page then Stretch_driver.Success
        else Stretch_driver.Retry
      | Swapped -> Stretch_driver.Retry (* needs disk: worker path *)
      | Lost ->
        metric_inc st.m.sd_lost_faults;
        Stretch_driver.Failure "page contents lost to media error"
      | Fresh ->
        (match take_pool st with
        | Some pfn ->
          install_zero st page pfn;
          Stretch_driver.Success
        | None -> Stretch_driver.Retry))

(* Swap-exhaustion degradation, rung 2: shed pool frames the domain
   holds beyond its guarantee back to the allocator. With the bitmap
   dry the domain cannot clean dirty pages, so optimistic frames it
   may later be asked to revoke are a liability — holding onto them
   risks a missed deadline and a kill. *)
let shed_optimistic st =
  let env = st.env in
  let client = env.Stretch_driver.frames_client in
  let g = Frames.guarantee client in
  let freed = ref 0 in
  while Frames.held client > g && st.pool <> [] do
    match take_pool st with
    | Some pfn ->
      Frames.free env.Stretch_driver.frames client pfn;
      incr freed
    | None -> ()
  done;
  if !freed > 0 then begin
    st.shed <- st.shed + !freed;
    metric_add st.m.sd_shed_frames !freed
  end

(* Swap-exhaustion degradation, rung 1: only victims needing no
   cleaning can yield a frame. Bounded by the resident count — each
   probe either frees a frame or re-inserts a dirty page, and a full
   cycle through the residents proves there is nothing clean left. *)
let evict_clean_scan st =
  let budget = ref (st.repl.Policy.Replacement.residents ()) in
  let found = ref None in
  while !found = None && !budget > 0 do
    decr budget;
    match evict_one ~no_clean:true st with
    | Freed pfn -> found := Some pfn
    | No_victim -> budget := 0
    | Parked | Swap_full -> ()
  done;
  !found

(* Get a frame by any means: pool, allocator, eviction — flushing the
   write-behind buffer when that is what stands between us and a free
   frame, and degrading to clean-only eviction when the blok bitmap is
   exhausted. *)
let obtain_frame st =
  let env = st.env in
  match take_pool st with
  | Some pfn -> Some pfn
  | None ->
    env.Stretch_driver.assert_idc_allowed "frames allocator";
    env.Stretch_driver.consume_cpu env.Stretch_driver.cost.Cost.idc_call;
    (match Frames.alloc env.Stretch_driver.frames env.Stretch_driver.frames_client with
    | Some pfn -> Some pfn
    | None ->
      let rec try_evict () =
        match evict_one st with
        | Freed pfn -> Some pfn
        | Parked ->
          if Policy.Writeback.full st.wb then begin
            flush_wb st;
            match take_pool st with
            | Some pfn -> Some pfn
            | None -> try_evict ()
          end
          else try_evict ()
        | Swap_full -> (
          (* Typed degradation ladder instead of the old abort: scan
             for a victim that needs no cleaning; failing that, drain
             the write-behind buffer (parked frames come back to the
             pool); failing that, the fault fails — a domain fault,
             not a simulator crash. *)
          match evict_clean_scan st with
          | Some pfn -> Some pfn
          | None ->
            if Policy.Writeback.pending st.wb > 0 then begin
              flush_wb st;
              take_pool st
            end
            else None)
        | No_victim ->
          if Policy.Writeback.pending st.wb > 0 then begin
            flush_wb st;
            take_pool st
          end
          else None
      in
      try_evict ())

(* A frame for read-ahead only: spare frames first, else recycle a
   victim (for a streaming reader it is clean, so this costs no disk
   write) — but never flush the write-behind buffer just to prefetch,
   and ([clean_only]) never park a dirty victim on a prefetch's
   behalf: that would sacrifice a resident page without yielding a
   frame. *)
let prefetch_frame st =
  match take_pool st with
  | Some f -> Some f
  | None ->
    (match evict_one ~clean_only:true st with Freed f -> Some f | _ -> None)

let is_swapped st p =
  p >= 0 && p < Array.length st.pages
  && (match st.pages.(p) with Swapped -> true | _ -> false)

(* Fetch left-over read-ahead candidates that are not contiguous with
   the demand run in the virtual address space but still coalesce on
   disk (a strided writer gets consecutive bloks for strided pages).
   Bounded: at most [max_extra_txns] extra transactions, spare frames
   only. *)
let max_extra_txns = 2

let fetch_extras st parent extras =
  let env = st.env in
  let extras =
    List.filter (fun p -> is_swapped st p && st.blok_of_page.(p) >= 0) extras
  in
  let by_blok =
    List.sort
      (fun a b -> compare st.blok_of_page.(a) st.blok_of_page.(b))
      extras
  in
  let chains =
    List.fold_left
      (fun acc p ->
        match acc with
        | (q :: _ as chain) :: rest
          when st.blok_of_page.(p) = st.blok_of_page.(q) + 1 ->
          (p :: chain) :: rest
        | _ -> [ p ] :: acc)
      [] by_blok
  in
  let chains = List.rev_map List.rev chains in
  let txns = ref 0 in
  List.iter
    (fun chain ->
      if !txns < max_extra_txns then begin
        (* Take pool frames for a prefix of the chain. *)
        let rec claim acc = function
          | [] -> List.rev acc
          | p :: rest ->
            (match take_pool st with
            | Some f -> claim ((p, f) :: acc) rest
            | None -> List.rev acc)
        in
        match claim [] chain with
        | [] -> ()
        | ((first, _) :: _ as got) ->
          incr txns;
          let sp = span_start st ~parent "usd.read" in
          let r =
            st.backing.Tier.Backing.read_pages
              ~page_index:st.blok_of_page.(first)
              ~npages:(List.length got)
          in
          span_finish sp;
          let lost_blok =
            match r with
            | Ok () -> fun _ -> false
            | Error (`Retired | `Crashed) -> fun _ -> true
            | Error (`Lost_pages l) -> fun b -> List.mem b l
          in
          let mapped = ref 0 in
          List.iter
            (fun (p, f) ->
              if lost_blok st.blok_of_page.(p) then begin
                (* Speculative read of a bad blok: the page is gone,
                   the frame is not. *)
                (match r with
                | Error (`Retired | `Crashed) -> ()
                | _ -> mark_lost st p);
                st.pool <- f :: st.pool
              end
              else begin
                let va = Stretch.page_base (the_stretch st) p in
                Stretch_driver.map_page env va ~pfn:f;
                st.pages.(p) <-
                  Resident
                    { pfn = f; clean_on_disk = true; dirty_latched = false;
                      via_prefetch = true };
                st.repl.Policy.Replacement.insert p;
                Frame_stack.move_to_bottom (stack st) f;
                incr mapped
              end)
            got;
          st.prefetched <- st.prefetched + !mapped;
          metric_add st.m.policy_prefetched !mapped
      end)
    chains

let full st (fault : Fault.t) =
  if not (owns_fault st fault) then
    Stretch_driver.Failure "fault outside bound stretch"
  else
    match fault.kind with
    | Mmu.Access_violation -> Stretch_driver.Failure "access violation"
    | Mmu.Unallocated -> Stretch_driver.Failure "unallocated address"
    | Mmu.Page_fault ->
      let env = st.env in
      let page = Stretch.page_index (the_stretch st) fault.va in
      (* Bounded re-examination: blocking on disk (or a concurrent
         worker's flush) can flip the page's state under this worker;
         re-examine instead of failing. A Wb_pending page whose rescue
         misses has been flipped to Swapped at the instant its run's
         write was issued (see [flush_wb]), so the next examination
         takes the disk path. The bound is defensive. *)
      let rec resolve attempt =
        if attempt > 8 then
          Stretch_driver.Failure "fault resolution livelock"
        else if st.crashed then
          Stretch_driver.Failure "backing store crashed"
        else
      match st.pages.(page) with
      | Resident _ -> Stretch_driver.Success
      | Lost ->
        metric_inc st.m.sd_lost_faults;
        Stretch_driver.Failure "page contents lost to media error"
      | Wb_pending _ ->
        if try_rescue st page then Stretch_driver.Success
        else resolve (attempt + 1)
      | Fresh ->
        (match obtain_frame st with
        | Some pfn ->
          install_zero st page pfn;
          Stretch_driver.Success
        | None -> Stretch_driver.Failure "no frame obtainable")
      | Swapped ->
        Policy.Prefetch.record_fault st.pf page;
        (match obtain_frame st with
        | Some pfn ->
          env.Stretch_driver.assert_idc_allowed "USBS read";
          (* Read-ahead: extend the read to a run of consecutive
             swapped pages whose bloks are contiguous on disk, as far
             as spare frames allow — one bigger disk transaction
             instead of several small ones. The policy's prefetch
             engine proposes the candidates; [Stream] mode reproduces
             the seed's fixed-window behaviour exactly. *)
          let npages = Array.length st.pages in
          let blok0 = st.blok_of_page.(page) in
          assert (blok0 >= 0);
          let stream_mode =
            match Policy.Prefetch.mode st.pf with
            | Policy.Prefetch.Stream _ -> true
            | _ -> false
          in
          let candidates = Policy.Prefetch.plan st.pf ~page in
          let frames = ref [ (page, pfn) ] in
          let run = ref 1 in
          let extras = ref [] in
          let stop = ref false in
          List.iter
            (fun p ->
              if not !stop then
                if
                  p = page + !run
                  && p < npages
                  && is_swapped st p
                  && st.blok_of_page.(p) = blok0 + !run
                then begin
                  match prefetch_frame st with
                  | Some f ->
                    frames := (p, f) :: !frames;
                    incr run
                  | None -> stop := true
                end
                else if stream_mode then
                  (* The seed's loop stops at the first break in the
                     run; keep that bit-for-bit. *)
                  stop := true
                else if
                  is_swapped st p
                  && st.blok_of_page.(p) >= 0
                  && not (List.mem_assoc p !frames)
                  && not (List.mem p !extras)
                then extras := p :: !extras)
            candidates;
          let sp = span_start st ~parent:fault.Fault.span "usd.read" in
          let r =
            st.backing.Tier.Backing.read_pages ~page_index:blok0 ~npages:!run
          in
          span_finish sp;
          let lost_blok =
            match r with
            | Ok () -> fun _ -> false
            | Error (`Retired | `Crashed) -> fun _ -> true
            | Error (`Lost_pages l) -> fun b -> List.mem b l
          in
          let mp = span_start st ~parent:fault.Fault.span "map" in
          let mapped_extra = ref 0 in
          List.iter
            (fun (p, f) ->
              if lost_blok st.blok_of_page.(p) then begin
                (* The blok under this page of the run is gone; its
                   frame goes back to the pool. *)
                (match r with
                | Error (`Retired | `Crashed) -> ()
                | _ -> mark_lost st p);
                st.pool <- f :: st.pool
              end
              else begin
                let va = Stretch.page_base (the_stretch st) p in
                Stretch_driver.map_page env va ~pfn:f;
                st.pages.(p) <-
                  Resident
                    { pfn = f; clean_on_disk = true; dirty_latched = false;
                      via_prefetch = p <> page };
                st.repl.Policy.Replacement.insert p;
                Frame_stack.move_to_bottom (stack st) f;
                if p <> page then incr mapped_extra
              end)
            (List.rev !frames);
          span_finish mp;
          st.tick <- st.tick + 1;
          st.prefetched <- st.prefetched + !mapped_extra;
          metric_add st.m.policy_prefetched !mapped_extra;
          if lost_blok blok0 then begin
            (* The demanded page itself is unrecoverable: a domain
               fault, not a simulator abort. *)
            metric_inc st.m.sd_lost_faults;
            match r with
            | Error `Retired ->
              Stretch_driver.Failure "backing store retired"
            | Error `Crashed ->
              Stretch_driver.Failure "backing store crashed"
            | _ -> Stretch_driver.Failure "page contents lost to media error"
          end
          else begin
            st.page_ins <- st.page_ins + 1;
            metric_inc st.m.policy_page_in;
            fetch_extras st fault.Fault.span (List.rev !extras);
            Stretch_driver.Success
          end
        | None -> Stretch_driver.Failure "no frame obtainable")
      in
      let outcome = resolve 0 in
      (* Swap-exhaustion degradation, rung 2 (see [shed_optimistic]):
         while the bitmap is dry, surplus pool frames are a kill risk
         under revocation — give them back promptly. *)
      if st.swap_exhausted then shed_optimistic st;
      outcome

(* Revocation: expose pool frames, then flush parked writes and evict
   residents (cleaning dirty pages first). *)
let relinquish st ~want =
  let given = ref 0 in
  let give_pool () =
    while !given < want && st.pool <> [] do
      match take_pool st with
      | Some pfn ->
        Frame_stack.move_to_top (stack st) pfn;
        incr given
      | None -> ()
    done
  in
  give_pool ();
  let continue_ = ref true in
  while !given < want && !continue_ do
    match evict_one st with
    | Freed pfn ->
      Frame_stack.move_to_top (stack st) pfn;
      incr given
    | Parked ->
      flush_wb st;
      give_pool ()
    | Swap_full -> (
      (* Dirty residents cannot be cleaned any more: give what the
         write-behind buffer still holds, then only clean victims. *)
      if Policy.Writeback.pending st.wb > 0 then begin
        flush_wb st;
        give_pool ()
      end
      else
        match evict_clean_scan st with
        | Some pfn ->
          Frame_stack.move_to_top (stack st) pfn;
          incr given
        | None -> continue_ := false)
    | No_victim ->
      if Policy.Writeback.pending st.wb > 0 then begin
        flush_wb st;
        give_pool ()
      end
      else continue_ := false
  done;
  !given

(* The advice channel (madvise-style). Dontneed evicts synchronously
   under the domain's own guarantee, so it must run in a worker/domain
   thread, not a notification handler. *)
let drop_page st p =
  match st.pages.(p) with
  | Resident r ->
    let env = st.env in
    st.repl.Policy.Replacement.remove p;
    let va = Stretch.page_base (the_stretch st) p in
    let pte = Stretch_driver.unmap_page env va in
    settle_prefetch st p (Pte.referenced pte);
    (match st.pages.(p) with
    | Resident { via_prefetch = true; _ } ->
      st.prefetch_waste <- st.prefetch_waste + 1;
      metric_inc st.m.policy_prefetch_waste
    | _ -> ());
    let dirty = Pte.dirty pte || r.dirty_latched in
    let must_clean = st.forgetful || dirty || not r.clean_on_disk in
    let blok = if must_clean then blok_for st p else None in
    if must_clean && blok = None then begin
      (* Swap exhausted: the advice cannot be honoured for a dirty
         page — keep it resident rather than lose it. *)
      if Pte.dirty pte then r.dirty_latched <- true;
      Stretch_driver.map_page env va ~pfn:r.pfn;
      st.repl.Policy.Replacement.insert p
    end
    else begin
      metric_inc st.m.policy_evict;
      st.evictions <- st.evictions + 1;
      if must_clean then begin
        let blok = Option.get blok in
        if wb_on st then begin
          st.pages.(p) <- Wb_pending { pfn = r.pfn };
          Policy.Writeback.enqueue st.wb ~page:p ~blok ~frame:r.pfn;
          (* Keep the buffer bounded even across a huge Dontneed range
             (obtain_frame applies the same rule). *)
          if Policy.Writeback.full st.wb then flush_wb st
        end
        else begin
          let ok = write_now st ~page:p blok in
          if st.forgetful then st.pages.(p) <- Fresh
          else if ok then st.pages.(p) <- Swapped
          else mark_lost st p;
          st.pool <- r.pfn :: st.pool
        end
      end
      else begin
        st.pages.(p) <- Swapped;
        st.pool <- r.pfn :: st.pool
      end
    end
  | Fresh | Swapped | Wb_pending _ | Lost -> ()

let advise st adv =
  st.tick <- st.tick + 1;
  Policy.Prefetch.advise st.pf adv;
  match adv with
  | Policy.Advice.Willneed { page; npages } ->
    for p = page to page + npages - 1 do
      if p >= 0 && p < Array.length st.pages then
        match st.pages.(p) with
        | Resident _ -> st.repl.Policy.Replacement.touch p
        | _ -> ()
    done
  | Policy.Advice.Dontneed { page; npages } ->
    for p = page to page + npages - 1 do
      if p >= 0 && p < Array.length st.pages then drop_page st p
    done;
    (* Dontneed promises prompt release: flush the remainder so the
       dropped frames actually reach the pool now instead of sitting
       parked until some later memory-pressure flush. *)
    flush_wb st
  | Policy.Advice.Sequential | Policy.Advice.Random -> ()

(* Freeze seam (PR 7 stacked pagers): surrender every resident page so
   a CoW template can donate its image to the share host. Each page is
   settled first — parked writes flushed, dirty contents cleaned to
   the backing store synchronously — so the disk copy stays the
   durability floor and the surrendered frame is pure cache. Pages
   whose durable copy cannot be established (swap dry, write failed)
   stay resident and are simply not surrendered. Returns the
   [(page, pfn)] pairs given up; their frames are unmapped (Unused in
   the RamTab) but still on this client's stack, ready for
   {!Frames.transfer}. Blocking (disk I/O): worker/domain thread
   context only. *)
let surrender_resident st =
  if st.forgetful then
    failwith "paged driver: cannot surrender a forgetful stretch";
  let env = st.env in
  flush_wb st;
  let out = ref [] in
  for p = 0 to Array.length st.pages - 1 do
    match st.pages.(p) with
    | Resident r ->
      let va = Stretch.page_base (the_stretch st) p in
      let pte = Stretch_driver.unmap_page env va in
      settle_prefetch st p (Pte.referenced pte);
      let dirty = Pte.dirty pte || r.dirty_latched in
      let must_clean = dirty || not r.clean_on_disk in
      let cleaned =
        (not must_clean)
        ||
        match blok_for st p with
        | Some b -> write_now st ~page:p b
        | None -> false
      in
      if cleaned then begin
        st.repl.Policy.Replacement.remove p;
        st.pages.(p) <- Swapped;
        out := (p, r.pfn) :: !out
      end
      else begin
        if Pte.dirty pte then r.dirty_latched <- true;
        Stretch_driver.map_page env va ~pfn:r.pfn
      end
    | Fresh | Swapped | Wb_pending _ | Lost -> ()
  done;
  List.rev !out

(* Adoption seam (PR 7): register a page whose frame was installed by
   an outer driver (a CoW break's private copy). The caller has
   already allocated the frame under this driver's client and mapped
   it read-write; from here on the page is managed like any other
   resident — evictable, cleanable, revocable. The copy has no disk
   image yet, so it enters dirty-latched. *)
let adopt st ~page ~pfn =
  if page < 0 || page >= Array.length st.pages then
    invalid_arg "Sd_paged.adopt: page out of range";
  (match st.pages.(page) with
  | Fresh | Swapped -> ()
  | Resident _ | Wb_pending _ | Lost ->
    invalid_arg "Sd_paged.adopt: page already resident");
  st.pages.(page) <-
    Resident
      { pfn; clean_on_disk = false; dirty_latched = true;
        via_prefetch = false };
  st.repl.Policy.Replacement.insert page;
  st.tick <- st.tick + 1;
  Frame_stack.move_to_bottom (stack st) pfn

type handle = state

let info st =
  { page_ins = st.page_ins; page_outs = st.page_outs;
    demand_zeros = st.demand_zeros; evictions = st.evictions;
    prefetched = st.prefetched; prefetch_hits = st.prefetch_hits;
    prefetch_waste = st.prefetch_waste;
    wb_flushes = Policy.Writeback.flushes st.wb; rescues = st.rescues;
    lost_pages = st.lost_pages; rebloks = st.rebloks; shed_frames = st.shed;
    restored_pages = st.restored; wb_degraded = st.degraded_sync;
    swap_exhausted = st.swap_exhausted; crashed = st.crashed }

let policy_name st = Policy.Spec.name st.spec
let swap_extent st = st.backing.Tier.Backing.extent ()
let obtain = obtain_frame

let create ?(forgetful = false) ?(initial_frames = 0)
    ?policy:(spec = Policy.Spec.default) ?(restore = []) ?backing ~swap env =
  let backing =
    match backing with Some b -> b | None -> Tier.Backing.of_sfs swap
  in
  let tick_ref = ref (fun () -> 0) in
  let st =
    { env; swap; backing; forgetful; spec;
      repl = Policy.Spec.make_replacement spec ~now:(fun () -> !tick_ref ());
      pf = Policy.Spec.make_prefetch spec;
      wb = Policy.Writeback.create ~write:(fun ~blok:_ ~nbloks:_ -> ()) ();
      bitmap =
        Bloks.create
          ~nbloks:(max 1 (backing.Tier.Backing.page_capacity ()));
      stretch = None; pages = [||]; blok_of_page = [||]; pool = [];
      tick = 0; page_ins = 0; page_outs = 0; demand_zeros = 0; evictions = 0;
      prefetched = 0; prefetch_hits = 0; prefetch_waste = 0; rescues = 0;
      lost_pages = 0; rebloks = 0; shed = 0; degraded_sync = false;
      swap_exhausted = false; restore; retiring = Hashtbl.create 7;
      restored = 0; crashed = false;
      m = metrics env.Stretch_driver.domain_name }
  in
  tick_ref := (fun () -> st.tick);
  st.wb <-
    Policy.Writeback.create ~max_batch:spec.Policy.Spec.wb_batch
      ~write:(fun ~blok ~nbloks ->
        let sp = span_start st ~parent:Obs.Span.none "usd.write" in
        let journaled = st.backing.Tier.Backing.journaled () in
        let run_pages =
          if journaled then pages_for_run st ~blok ~nbloks else []
        in
        let r =
          if journaled then
            st.backing.Tier.Backing.write_pages_commit ~page_index:blok
              ~npages:nbloks ~pages:run_pages
              ~retire:(retire_for st (List.map fst run_pages))
          else
            st.backing.Tier.Backing.write_pages ~page_index:blok
              ~npages:nbloks
        in
        span_finish sp;
        (match r with
        | Ok () when journaled -> release_retired st (List.map fst run_pages)
        | Error `Crashed ->
          (* Torn on the platter mid-flush: this rewrite's Commit
             record never landed, so on restart the run's pages still
             answer to their last committed slots. The domain itself
             is dead — the crashed latch fails its next fault. *)
          note_crashed st
        | _ -> ());
        let lost =
          match r with
          | Ok () -> []
          | Error (`Retired | `Crashed) -> []
          | Error (`Lost_pages l) -> l
        in
        (match lost with
        | [] -> ()
        | lost ->
          (* Parked data gone: by flush time the frames are committed
             for release, so no rewrite source remains. Mark the
             owning pages, answer each lost slot's final error in the
             accounting, and fall back to synchronous write-through —
             write-behind has shown it can lose data here. *)
          let n = Array.length st.blok_of_page in
          List.iter
            (fun bad ->
              Inject.note_killed wb_class;
              let rec find i =
                if i >= n then ()
                else if st.blok_of_page.(i) = bad then (
                  match st.pages.(i) with
                  | Swapped -> mark_lost st i
                  | _ -> ())
                else find (i + 1)
              in
              find 0)
            lost;
          if not st.degraded_sync then begin
            st.degraded_sync <- true;
            metric_inc st.m.sd_wb_degraded
          end);
        st.page_outs <- st.page_outs + nbloks - List.length lost;
        metric_add st.m.policy_page_out (nbloks - List.length lost);
        metric_inc st.m.policy_wb_flush)
      ();
  let shortfall = ref 0 in
  for _ = 1 to initial_frames do
    match Frames.alloc env.Stretch_driver.frames env.Stretch_driver.frames_client with
    | Some pfn -> st.pool <- pfn :: st.pool
    | None -> incr shortfall
  done;
  if !shortfall > 0 then
    Error (Printf.sprintf "could not preallocate %d frames" !shortfall)
  else
    let pname = Policy.Spec.name spec in
    (* Non-default backends show up in the driver name; the default
       ("sfs") keeps every seed report byte-identical. *)
    let bsuffix =
      if backing.Tier.Backing.label = "sfs" then ""
      else "@" ^ backing.Tier.Backing.label
    in
    Ok
      ( { Stretch_driver.name =
            (if forgetful then
               Printf.sprintf "paged(forgetful,%s%s)" pname bsuffix
             else Printf.sprintf "paged(%s%s)" pname bsuffix);
          bind = bind st;
          fast = fast st;
          full = full st;
          relinquish = relinquish st;
          resident_pages =
            (fun () -> st.repl.Policy.Replacement.residents ());
          free_frames = (fun () -> List.length st.pool) },
        st )
