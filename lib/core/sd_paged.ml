open Hw

(* A resident page. [clean] says the backing store holds its current
   contents, so evicting it needs no write: true only for a page read
   in from swap whose dirty bit has not been seen set since. Policies
   that clear the referenced bit do so by unmap+remap, which discards
   the PTE's dirty bit, so a set bit is latched here as [clean =
   false]. [via_prefetch] marks a page brought in by read-ahead whose
   first reference has not been observed yet — resolved to a hit or a
   waste at the first reference-sample or at eviction. *)
type resident = {
  pfn : int;
  mutable clean : bool;
  mutable via_prefetch : bool;
}

(* Residency state of one page of the stretch. *)
type pstate =
  | Fresh  (* no contents yet: demand-zero on touch *)
  | Resident of resident
  | Wb_pending of { pfn : int }
      (* evicted dirty, parked in the write-behind buffer: the frame
         still holds the only up-to-date copy until the flush *)
  | Swapped
  | Lost
      (* contents unrecoverable: the backing bloks went bad and every
         recovery rung (retry, spare remap, re-blok) was exhausted; a
         fault on the page is a domain fault *)

type info = {
  mutable page_ins : int;
  mutable page_outs : int;
  mutable demand_zeros : int;
  mutable evictions : int;
  mutable prefetched : int;
  mutable prefetch_hits : int;
  mutable prefetch_waste : int;
  mutable wb_flushes : int;
  mutable rescues : int;
  mutable lost_pages : int;
  mutable rebloks : int;
  mutable shed_frames : int;
  mutable restored_pages : int;
  (* Degradations (sticky): [wb_degraded] disables write-behind
     parking after a flush lost data; [swap_exhausted] marks the blok
     bitmap dry — only clean victims can yield frames, and the driver
     stops holding optimistic pool frames. [crashed] latches when a
     crash point tears one of our writes — the backing store is gone
     mid-operation and every later fault is a domain fault (the reaper
     then kills the domain). *)
  mutable wb_degraded : bool;
  mutable swap_exhausted : bool;
  mutable crashed : bool;
}

type state = {
  env : Stretch_driver.env;
  (* every data-path transaction goes through [backing]; the default
     ([Tier.Backing.of_sfs swap]) is the swapfile itself, bit-for-bit. *)
  backing : Tier.Backing.t;
  forgetful : bool;
  spec : Policy.Spec.t;
  repl : Policy.Replacement.t;
  probe : Policy.Replacement.probe;   (* [repl]'s view of the pages *)
  pf : Policy.Prefetch.t;
  wb : Policy.Writeback.t;
  bitmap : Bloks.t;
  mutable stretch : Stretch.t option;
  mutable pages : pstate array;       (* per page of the stretch *)
  mutable blok_of_page : int array;   (* -1 = none assigned *)
  mutable pool : int list;            (* owned, unmapped frames *)
  tick : int ref;                     (* per-domain virtual time *)
  stats : info;
  (* Crash consistency (journaled backing store only): [restore] is
     the committed (page, slot) image a restarted domain re-adopts at
     bind; [retiring] maps a page to the committed slot its in-flight
     out-of-place rewrite supersedes (freed when the rewrite
     commits). *)
  restore : (int * int) list;
  retiring : (int, int) Hashtbl.t;
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
let wb_on st = Policy.Writeback.enabled st.wb && not st.stats.wb_degraded

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

let page_va st p = Stretch.page_base (the_stretch st) p

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
        st.stats.restored_pages <- st.stats.restored_pages + 1
      end)
    st.restore;
  metric_add st.m.sd_restored_pages st.stats.restored_pages

let owns_fault st (fault : Fault.t) =
  match (fault.sid, st.stretch) with
  | Some sid, Some s -> s.Stretch.sid = sid
  | _ -> false

(* A prefetched page's fate is decided at the first point we observe
   its referenced bit (a reference-sampling pass or its eviction). *)
let settle_prefetch st r referenced =
  if r.via_prefetch && referenced then begin
    r.via_prefetch <- false;
    st.stats.prefetch_hits <- st.stats.prefetch_hits + 1;
    metric_inc st.m.policy_prefetch_hit
  end

(* The window through which replacement policies see the hardware:
   referenced bits live in the PTEs; clearing one is the user-level
   unmap+remap dance (which re-arms FOR/FOW), charged to the domain.
   [create] builds each driver's one probe over these three. *)
let probe_resident st p =
  match st.pages.(p) with Resident _ -> true | _ -> false

let probe_referenced st p =
  match st.pages.(p) with
  | Resident _ ->
    let env = st.env in
    let pte, cost =
      Translation.trans env.Stretch_driver.translation ~va:(page_va st p)
    in
    env.Stretch_driver.consume_cpu cost;
    Pte.referenced pte
  | _ -> false

let probe_clear_referenced st p =
  match st.pages.(p) with
  | Resident r ->
    let env = st.env in
    let va = page_va st p in
    let pte = Stretch_driver.unmap_page env va in
    if Pte.dirty pte then r.clean <- false;
    settle_prefetch st r (Pte.referenced pte);
    Stretch_driver.map_page env va ~pfn:r.pfn
  | _ -> ()

(* Make [p] resident in [pfn] (already mapped): its record, the
   replacement policy's view of it, and the frame's place at the
   bottom of the frame stack, the last to be revoked. *)
let make_resident st p pfn ~clean ~via_prefetch =
  st.pages.(p) <- Resident { pfn; clean; via_prefetch };
  st.repl.Policy.Replacement.insert p;
  Frame_stack.move_to_bottom (stack st) pfn

(* Map [page] into [pfn] as a demand-zeroed page. *)
let install_zero st page pfn =
  let env = st.env in
  Stretch_driver.map_page env (page_va st page) ~pfn;
  env.Stretch_driver.consume_cpu env.Stretch_driver.cost.Cost.page_zero;
  make_resident st page pfn ~clean:false ~via_prefetch:false;
  incr st.tick;
  st.stats.demand_zeros <- st.stats.demand_zeros + 1

let note_swap_exhausted st =
  if not st.stats.swap_exhausted then begin
    st.stats.swap_exhausted <- true;
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
  if not st.stats.crashed then begin
    st.stats.crashed <- true;
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
  st.stats.lost_pages <- st.stats.lost_pages + 1;
  metric_inc st.m.sd_lost_pages

let lost_fault st =
  metric_inc st.m.sd_lost_faults;
  Stretch_driver.Failure "page contents lost to media error"

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
      st.stats.page_outs <- st.stats.page_outs + 1;
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
        st.stats.rebloks <- st.stats.rebloks + 1;
        Inject.note_remapped reblok_class;
        metric_inc st.m.sd_rebloks;
        go b'
      | None ->
        note_swap_exhausted st;
        Inject.note_killed write_class;
        false)
  in
  go blok

(* The write-behind buffer's writer: one coalesced run of parked
   pages, committing on a journaled store. *)
let write_run st ~blok ~nbloks =
  (* Counted when issued, before the write blocks: a snapshot taken
     mid-flush sees the run as flushed. *)
  st.stats.wb_flushes <- st.stats.wb_flushes + 1;
  let sp = span_start st ~parent:Obs.Span.none "usd.write" in
  let journaled = st.backing.Tier.Backing.journaled () in
  let run_pages = if journaled then pages_for_run st ~blok ~nbloks else [] in
  let r =
    if journaled then
      st.backing.Tier.Backing.write_pages_commit ~page_index:blok
        ~npages:nbloks ~pages:run_pages
        ~retire:(retire_for st (List.map fst run_pages))
    else st.backing.Tier.Backing.write_pages ~page_index:blok ~npages:nbloks
  in
  span_finish sp;
  (match r with
  | Ok () when journaled -> release_retired st (List.map fst run_pages)
  | Error `Crashed ->
    (* Torn on the platter mid-flush: this rewrite's Commit record
       never landed, so on restart the run's pages still answer to
       their last committed slots. The domain itself is dead — the
       crashed latch fails its next fault. *)
    note_crashed st
  | _ -> ());
  let lost = match r with Error (`Lost_pages l) -> l | _ -> [] in
  if lost <> [] then begin
    (* Parked data gone: by flush time the frames are committed for
       release, so no rewrite source remains. Mark the owning pages,
       answer each lost slot's final error in the accounting, and fall
       back to synchronous write-through — write-behind has shown it
       can lose data here. *)
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
    if not st.stats.wb_degraded then begin
      st.stats.wb_degraded <- true;
      metric_inc st.m.sd_wb_degraded
    end
  end;
  st.stats.page_outs <- st.stats.page_outs + nbloks - List.length lost;
  metric_add st.m.policy_page_out (nbloks - List.length lost);
  metric_inc st.m.policy_wb_flush

(* Issue every parked write-behind entry (coalesced by the buffer into
   contiguous USD transactions) and return the freed frames to the
   pool; [false] when nothing was parked. A page's state flips to
   Swapped at the commit point — the instant its run's write is
   issued, not when the whole flush returns — so pages in runs not yet
   written stay Wb_pending and rescuable while earlier runs block on
   disk. Flipping at issue time is sound because one client's USD
   requests are served FIFO: a fault that then reads the page queues
   its read behind the in-flight write and cannot observe stale disk
   contents. The frame returns to the pool only once its run's write
   has completed (it is pinned while the "DMA" is in flight).
   Blocking (disk I/O): worker-thread context only; safe to run
   concurrently from the fault and revocation workers (each flush
   iteration claims a disjoint run). *)
let flush_wb st =
  if Policy.Writeback.pending st.wb = 0 then false
  else begin
    st.env.Stretch_driver.assert_idc_allowed "USBS write";
    ignore
      (Policy.Writeback.flush st.wb
         ~commit:(fun ~page ->
           st.pages.(page) <- (if st.forgetful then Fresh else Swapped))
         ~release:(fun ~page:_ ~frame -> st.pool <- frame :: st.pool)
         ~write:(write_run st));
    true
  end

type evicted = No_victim | Freed of int | Parked | Swap_full

(* Must the page be written before its frame can go, as far as the
   driver knows without reading the PTE? *)
let must_clean st r = st.forgetful || not r.clean

(* Non-destructive "would cleaning be needed" probe (costed like any
   other PTE inspection). *)
let needs_clean st p r =
  must_clean st r
  ||
  let env = st.env in
  let pte, cost =
    Translation.trans env.Stretch_driver.translation ~va:(page_va st p)
  in
  env.Stretch_driver.consume_cpu cost;
  Pte.dirty pte

type cleaning = Clean | Clean_to of int | Dry

(* Unmap resident page [p] and decide how it leaves: [Clean] needs no
   write, [Clean_to b] must first be written to blok [b]. The PTE's
   dirty bit is latched into [r] first. On a dry blok bitmap the page
   cannot be cleaned, so it is mapped again and [Dry] returned — the
   caller degrades instead of dying. *)
let unmap_and_decide st p r =
  let env = st.env in
  let va = page_va st p in
  let pte = Stretch_driver.unmap_page env va in
  settle_prefetch st r (Pte.referenced pte);
  if Pte.dirty pte then r.clean <- false;
  if not (must_clean st r) then Clean
  else
    match blok_for st p with
    | Some b -> Clean_to b
    | None ->
      Stretch_driver.map_page env va ~pfn:r.pfn;
      Dry

(* Book an eviction's read-ahead outcome: a prefetched page leaving
   without its first reference observed was a waste. *)
let note_evict st r =
  if r.via_prefetch then begin
    st.stats.prefetch_waste <- st.stats.prefetch_waste + 1;
    metric_inc st.m.policy_prefetch_waste
  end;
  metric_inc st.m.policy_evict

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
  match st.repl.Policy.Replacement.victim st.probe with
  | None -> No_victim
  | Some victim -> (
    match st.pages.(victim) with
    | Resident r
      when ((clean_only && wb_on st) || no_clean) && needs_clean st victim r
      ->
      (* Re-insert: the policy sees the page as freshly mapped — cheap
         protection for a page we just chose not to lose. *)
      st.repl.Policy.Replacement.insert victim;
      No_victim
    | Resident r -> (
      match unmap_and_decide st victim r with
      | Dry ->
        st.repl.Policy.Replacement.insert victim;
        Swap_full
      | Clean ->
        note_evict st r;
        st.stats.evictions <- st.stats.evictions + 1;
        st.pages.(victim) <- Swapped;
        Freed r.pfn
      | Clean_to blok when wb_on st ->
        note_evict st r;
        st.stats.evictions <- st.stats.evictions + 1;
        st.pages.(victim) <- Wb_pending { pfn = r.pfn };
        Policy.Writeback.enqueue st.wb ~page:victim ~blok ~frame:r.pfn;
        Parked
      | Clean_to blok ->
        note_evict st r;
        let ok = write_now st ~page:victim blok in
        st.stats.evictions <- st.stats.evictions + 1;
        (* The paging-out experiment's driver forgets the disk copy; a
           failed write loses the contents but still frees the
           frame. *)
        if st.forgetful then st.pages.(victim) <- Fresh
        else if ok then st.pages.(victim) <- Swapped
        else mark_lost st victim;
        Freed r.pfn)
    | Fresh | Swapped | Wb_pending _ | Lost ->
      (* The policy's probe guarantees victims are resident. *)
      No_victim)

(* Read-your-writes fast path: a fault on a parked page cancels the
   pending write and remaps the very frame that holds the data — no
   disk I/O. The page is still dirty, so it is not clean and will be
   cleaned again on its next eviction. *)
let try_rescue st page =
  match st.pages.(page) with
  | Wb_pending { pfn } ->
    (match Policy.Writeback.rescue st.wb ~page with
    | Some _ ->
      Stretch_driver.map_page st.env (page_va st page) ~pfn;
      make_resident st page pfn ~clean:false ~via_prefetch:false;
      incr st.tick;
      st.stats.rescues <- st.stats.rescues + 1;
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
    | Mmu.Page_fault when st.stats.crashed ->
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
      | Lost -> lost_fault st
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
  st.stats.shed_frames <- st.stats.shed_frames + !freed;
  metric_add st.m.sd_shed_frames !freed

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
        | Parked when Policy.Writeback.full st.wb -> (
          ignore (flush_wb st);
          match take_pool st with
          | Some pfn -> Some pfn
          | None -> try_evict ())
        | Parked -> try_evict ()
        | Swap_full -> (
          (* Typed degradation ladder instead of the old abort: scan
             for a victim that needs no cleaning; failing that, drain
             the write-behind buffer (parked frames come back to the
             pool); failing that, the fault fails — a domain fault,
             not a simulator crash. *)
          match evict_clean_scan st with
          | Some pfn -> Some pfn
          | None -> if flush_wb st then take_pool st else None)
        | No_victim -> if flush_wb st then take_pool st else None
      in
      try_evict ())

(* A frame for read-ahead only: spare frames first, else recycle a
   victim (for a streaming reader it is clean, so this costs no disk
   write) — but never flush the write-behind buffer just to prefetch,
   and never park a dirty victim on a prefetch's behalf: that would
   sacrifice a resident page without yielding a frame. *)
let prefetch_frame st =
  match take_pool st with
  | Some f -> Some f
  | None -> (
    match evict_one ~clean_only:true st with Freed f -> Some f | _ -> None)

let is_swapped st p =
  p >= 0 && p < Array.length st.pages
  && (match st.pages.(p) with Swapped -> true | _ -> false)

let read_bloks st ~parent ~blok ~npages =
  let sp = span_start st ~parent "usd.read" in
  let r = st.backing.Tier.Backing.read_pages ~page_index:blok ~npages in
  span_finish sp;
  r

(* Did read result [r] lose blok [b]? A retired or crashed store lost
   the whole read. *)
let lost_in r b =
  match r with
  | Ok () -> false
  | Error (`Retired | `Crashed) -> true
  | Error (`Lost_pages l) -> List.mem b l

(* Map a run of [(page, frame)] pairs just read with result [r]. A
   page whose blok came back lost is marked [Lost] (a retired or
   crashed store leaves it [Swapped]) and its frame goes back to the
   pool; the others become resident, clean. Every page but [demand]
   (-1 for none) came in by read-ahead and counts as prefetched. *)
let map_run st r ~demand run =
  let mapped = ref 0 in
  List.iter
    (fun (p, f) ->
      if lost_in r st.blok_of_page.(p) then begin
        (match r with Error (`Lost_pages _) -> mark_lost st p | _ -> ());
        st.pool <- f :: st.pool
      end
      else begin
        Stretch_driver.map_page st.env (page_va st p) ~pfn:f;
        make_resident st p f ~clean:true ~via_prefetch:(p <> demand);
        if p <> demand then incr mapped
      end)
    run;
  st.stats.prefetched <- st.stats.prefetched + !mapped;
  metric_add st.m.policy_prefetched !mapped

(* Fetch left-over read-ahead candidates that are not contiguous with
   the demand run in the virtual address space but still coalesce on
   disk (a strided writer gets consecutive bloks for strided pages).
   Bounded: at most [max_extra_txns] extra transactions, spare frames
   only. *)
let max_extra_txns = 2

(* Pool frames for a prefix of [chain]. *)
let rec claim st acc = function
  | [] -> List.rev acc
  | p :: rest -> (
    match take_pool st with
    | Some f -> claim st ((p, f) :: acc) rest
    | None -> List.rev acc)

let fetch_extras st parent extras =
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
  let txns = ref 0 in
  List.iter
    (fun chain ->
      if !txns < max_extra_txns then
        match claim st [] chain with
        | [] -> ()
        | (first, _) :: _ as got ->
          incr txns;
          let r =
            read_bloks st ~parent ~blok:st.blok_of_page.(first)
              ~npages:(List.length got)
          in
          map_run st r ~demand:(-1) got)
    (List.rev_map List.rev chains)

(* Demand page-in of swapped [page] into [pfn]. Read-ahead extends the
   read to a run of consecutive swapped pages whose bloks are
   contiguous on disk, as far as spare frames allow — one bigger disk
   transaction instead of several small ones. The policy's prefetch
   engine proposes the candidates; [Stream] mode reproduces the seed's
   fixed-window behaviour exactly. *)
let page_in st (fault : Fault.t) page pfn =
  st.env.Stretch_driver.assert_idc_allowed "USBS read";
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
          (* The seed's loop stops at the first break in the run; keep
             that bit-for-bit. *)
          stop := true
        else if
          is_swapped st p
          && st.blok_of_page.(p) >= 0
          && not (List.mem_assoc p !frames)
          && not (List.mem p !extras)
        then extras := p :: !extras)
    candidates;
  let r = read_bloks st ~parent:fault.Fault.span ~blok:blok0 ~npages:!run in
  let mp = span_start st ~parent:fault.Fault.span "map" in
  map_run st r ~demand:page (List.rev !frames);
  span_finish mp;
  incr st.tick;
  if lost_in r blok0 then begin
    (* The demanded page itself is unrecoverable: a domain fault, not
       a simulator abort. *)
    metric_inc st.m.sd_lost_faults;
    match r with
    | Error `Retired -> Stretch_driver.Failure "backing store retired"
    | Error `Crashed -> Stretch_driver.Failure "backing store crashed"
    | _ -> Stretch_driver.Failure "page contents lost to media error"
  end
  else begin
    st.stats.page_ins <- st.stats.page_ins + 1;
    metric_inc st.m.policy_page_in;
    fetch_extras st fault.Fault.span (List.rev !extras);
    Stretch_driver.Success
  end

let full st (fault : Fault.t) =
  if not (owns_fault st fault) then
    Stretch_driver.Failure "fault outside bound stretch"
  else
    match fault.kind with
    | Mmu.Access_violation -> Stretch_driver.Failure "access violation"
    | Mmu.Unallocated -> Stretch_driver.Failure "unallocated address"
    | Mmu.Page_fault ->
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
        else if st.stats.crashed then
          Stretch_driver.Failure "backing store crashed"
        else
          match st.pages.(page) with
          | Resident _ -> Stretch_driver.Success
          | Lost -> lost_fault st
          | Wb_pending _ ->
            if try_rescue st page then Stretch_driver.Success
            else resolve (attempt + 1)
          | Fresh -> (
            match obtain_frame st with
            | Some pfn ->
              install_zero st page pfn;
              Stretch_driver.Success
            | None -> Stretch_driver.Failure "no frame obtainable")
          | Swapped -> (
            Policy.Prefetch.record_fault st.pf page;
            match obtain_frame st with
            | Some pfn -> page_in st fault page pfn
            | None -> Stretch_driver.Failure "no frame obtainable")
      in
      let outcome = resolve 0 in
      (* Swap-exhaustion degradation, rung 2 (see [shed_optimistic]):
         while the bitmap is dry, surplus pool frames are a kill risk
         under revocation — give them back promptly. *)
      if st.stats.swap_exhausted then shed_optimistic st;
      outcome

(* Revocation: expose pool frames, then flush parked writes and evict
   residents (cleaning dirty pages first). *)
let relinquish st ~want =
  let given = ref 0 in
  let give pfn =
    Frame_stack.move_to_top (stack st) pfn;
    incr given
  in
  let give_pool () =
    while !given < want && st.pool <> [] do
      match take_pool st with
      | Some pfn -> give pfn
      | None -> ()
    done
  in
  give_pool ();
  let continue_ = ref true in
  while !given < want && !continue_ do
    match evict_one st with
    | Freed pfn -> give pfn
    | Parked ->
      ignore (flush_wb st);
      give_pool ()
    | Swap_full -> (
      (* Dirty residents cannot be cleaned any more: give what the
         write-behind buffer still holds, then only clean victims. *)
      if flush_wb st then give_pool ()
      else
        match evict_clean_scan st with
        | Some pfn -> give pfn
        | None -> continue_ := false)
    | No_victim -> if flush_wb st then give_pool () else continue_ := false
  done;
  !given

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
  ignore (flush_wb st);
  let out = ref [] in
  for p = 0 to Array.length st.pages - 1 do
    match st.pages.(p) with
    | Resident r -> (
      let surrender () =
        st.repl.Policy.Replacement.remove p;
        st.pages.(p) <- Swapped;
        out := (p, r.pfn) :: !out
      in
      match unmap_and_decide st p r with
      | Clean -> surrender ()
      | Clean_to b ->
        if write_now st ~page:p b then surrender ()
        else Stretch_driver.map_page st.env (page_va st p) ~pfn:r.pfn
      | Dry -> ())
    | Fresh | Swapped | Wb_pending _ | Lost -> ()
  done;
  List.rev !out

(* Adoption seam (PR 7): register a page whose frame was installed by
   an outer driver (a CoW break's private copy). The caller has
   already allocated the frame under this driver's client and mapped
   it read-write; from here on the page is managed like any other
   resident — evictable, cleanable, revocable. The copy has no disk
   image yet, so it enters dirty. *)
let adopt st ~page ~pfn =
  if page < 0 || page >= Array.length st.pages then
    invalid_arg "Sd_paged.adopt: page out of range";
  (match st.pages.(page) with
  | Fresh | Swapped -> ()
  | Resident _ | Wb_pending _ | Lost ->
    invalid_arg "Sd_paged.adopt: page already resident");
  make_resident st page pfn ~clean:false ~via_prefetch:false;
  incr st.tick

type handle = state

let info st = { st.stats with page_ins = st.stats.page_ins }

let info_since st (s : info) =
  let d = info st in
  d.page_ins <- d.page_ins - s.page_ins;
  d.page_outs <- d.page_outs - s.page_outs;
  d.demand_zeros <- d.demand_zeros - s.demand_zeros;
  d.evictions <- d.evictions - s.evictions;
  d.prefetched <- d.prefetched - s.prefetched;
  d.prefetch_hits <- d.prefetch_hits - s.prefetch_hits;
  d.prefetch_waste <- d.prefetch_waste - s.prefetch_waste;
  d.wb_flushes <- d.wb_flushes - s.wb_flushes;
  d.rescues <- d.rescues - s.rescues;
  d.lost_pages <- d.lost_pages - s.lost_pages;
  d.rebloks <- d.rebloks - s.rebloks;
  d.shed_frames <- d.shed_frames - s.shed_frames;
  d.restored_pages <- d.restored_pages - s.restored_pages;
  d

let policy_name st = Policy.Spec.name st.spec
let swap_extent st = st.backing.Tier.Backing.extent ()
let obtain = obtain_frame

let create ?(forgetful = false) ?(initial_frames = 0)
    ?policy:(spec = Policy.Spec.default) ?(restore = []) ?backing ~swap env =
  let backing =
    match backing with Some b -> b | None -> Tier.Backing.of_sfs swap
  in
  let tick = ref 0 in
  let rec st =
    { env; backing; forgetful; spec;
      repl = Policy.Spec.make_replacement spec ~now:(fun () -> !tick);
      probe;
      pf = Policy.Spec.make_prefetch spec;
      wb = Policy.Writeback.create ~max_batch:spec.Policy.Spec.wb_batch ();
      bitmap =
        Bloks.create
          ~nbloks:(max 1 (backing.Tier.Backing.page_capacity ()));
      stretch = None; pages = [||]; blok_of_page = [||]; pool = []; tick;
      stats =
        { page_ins = 0; page_outs = 0; demand_zeros = 0; evictions = 0;
          prefetched = 0; prefetch_hits = 0; prefetch_waste = 0;
          wb_flushes = 0; rescues = 0; lost_pages = 0; rebloks = 0;
          shed_frames = 0; restored_pages = 0; wb_degraded = false;
          swap_exhausted = false; crashed = false };
      restore; retiring = Hashtbl.create 7;
      m = metrics env.Stretch_driver.domain_name }
  and probe =
    { Policy.Replacement.resident = (fun p -> probe_resident st p);
      referenced = (fun p -> probe_referenced st p);
      clear_referenced = (fun p -> probe_clear_referenced st p) }
  in
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
