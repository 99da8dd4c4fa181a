open Engine
open Hw

type revocation = {
  rev_k : int;
  ready : unit Sync.Ivar.t;
}

type client = {
  domain : int;
  g : int;
  o : int;
  mutable n : int;
  stack : Frame_stack.t;
  mutable notify_revoke : (k:int -> deadline:Time.t -> unit) option;
  mutable pending_rev : revocation option;
  mutable live : bool;
  (* Position on the allocator's member list; None once retired. *)
  mutable node : client Ilist.node option;
  revoke_latency : Obs.Metrics.histogram; (* label "dom<id>" *)
}

type error =
  | Negative_quota
  | Admission_overcommit of { requested : int; available : int }
  | Frame_in_use of { pfn : int }
  | Quota_exhausted of { held : int; quota : int }

let pp_error ppf = function
  | Negative_quota -> Format.pp_print_string ppf "negative quota"
  | Admission_overcommit { requested; available } ->
    Format.fprintf ppf
      "admission refused: %d guaranteed frames requested, %d available"
      requested available
  | Frame_in_use { pfn } -> Format.fprintf ppf "frame %d not free" pfn
  | Quota_exhausted { held; quota } ->
    Format.fprintf ppf "quota exhausted (%d/%d frames held)" held quota

let error_message e = Format.asprintf "%a" pp_error e

type t = {
  sim : Sim.t;
  ramtab : Ramtab.t;
  nframes : int;
  (* Free pool as a bitmap, scanned round-robin from a cursor. *)
  avail : bool array;
  mutable free_count : int;
  mutable cursor : int;
  (* Members in admission order (victim picking folds it, and ties go
     to the earliest-admitted holder, as with the seed list). *)
  members : client Ilist.t;
  (* Running sum of admitted guarantees, so admission control is O(1)
     per request rather than a member scan. *)
  mutable gsum : int;
  mutable kill : int -> unit;
  deadline_span : Time.span;
  (* One revocation round at a time. *)
  rev_lock : Sync.Semaphore.t;
  mutable intrusive_count : int;
  mutable transparent_count : int;
}

let create ?(revocation_deadline = Time.ms 100) sim ramtab ~nframes =
  if nframes <= 0 || nframes > Ramtab.nframes ramtab then
    invalid_arg "Frames.create: bad frame count";
  { sim; ramtab; nframes; avail = Array.make nframes true;
    free_count = nframes; cursor = 0; members = Ilist.create (); gsum = 0;
    kill = (fun _ -> ()); deadline_span = revocation_deadline;
    rev_lock = Sync.Semaphore.create 1; intrusive_count = 0;
    transparent_count = 0 }

(* Free-pool primitives. *)

let pool_put t pfn =
  assert (not t.avail.(pfn));
  t.avail.(pfn) <- true;
  t.free_count <- t.free_count + 1

let pool_take t pfn =
  assert (t.avail.(pfn));
  t.avail.(pfn) <- false;
  t.free_count <- t.free_count - 1

(* Default policy: round-robin scan from the cursor. *)
let pool_take_any t =
  if t.free_count = 0 then None
  else begin
    let n = t.nframes in
    let rec scan i steps =
      if steps >= n then None
      else if t.avail.(i) then begin
        t.cursor <- (i + 1) mod n;
        pool_take t i;
        Some i
      end
      else scan ((i + 1) mod n) (steps + 1)
    in
    scan t.cursor 0
  end

let guaranteed_total t = t.gsum

let admit t ~domain ~guarantee ~optimistic =
  if guarantee < 0 || optimistic < 0 then Error Negative_quota
  else if t.gsum + guarantee > t.nframes then
    Error
      (Admission_overcommit
         { requested = guarantee; available = t.nframes - t.gsum })
  else begin
    let c =
      { domain; g = guarantee; o = optimistic; n = 0;
        stack = Frame_stack.create (); notify_revoke = None;
        pending_rev = None; live = true; node = None;
        revoke_latency =
          Obs.Metrics.histogram
            ~label:("dom" ^ string_of_int domain)
            "revoke.latency_us" }
    in
    let node = Ilist.make_node c in
    c.node <- Some node;
    Ilist.push_back t.members node;
    t.gsum <- t.gsum + guarantee;
    if !Obs.enabled then
      Obs.Qos_audit.mem_grant ~now:(Sim.now t.sim) ~dom:domain ~guarantee
        ~capacity:t.nframes;
    Ok c
  end

let set_revocation_handler c f = c.notify_revoke <- Some f

let set_kill_handler t f = t.kill <- f

let frame_stack c = c.stack
let guarantee c = c.g
let held c = c.n
let is_live c = c.live
let free_frames t = t.free_count
let total_frames t = t.nframes
let revocations t = t.intrusive_count
let transparent_revocations t = t.transparent_count

type books = { b_held : int; b_owned : int; b_balanced : bool }

let books t =
  let held = Ilist.fold (fun acc c -> acc + c.n) 0 t.members in
  let owned = ref 0 in
  for pfn = 0 to Ramtab.nframes t.ramtab - 1 do
    if Ramtab.owner t.ramtab ~pfn <> None then incr owned
  done;
  { b_held = held;
    b_owned = !owned;
    b_balanced = t.free_count + held = t.nframes && !owned = held }

let grant t c pfn =
  Ramtab.set_owner t.ramtab ~pfn ~owner:c.domain ~width:Addr.page_shift;
  Frame_stack.push c.stack pfn;
  c.n <- c.n + 1

(* Reclaim one frame from the top of a victim's stack; the frame must
   already be unused. *)
let reclaim_top t victim =
  match Frame_stack.top_k victim.stack 1 with
  | [ pfn ] when Ramtab.state t.ramtab ~pfn = Ramtab.Unused ->
    ignore (Frame_stack.remove victim.stack pfn);
    Ramtab.clear_owner t.ramtab ~pfn;
    victim.n <- victim.n - 1;
    pool_put t pfn;
    true
  | _ -> false

let release_all_frames t c =
  List.iter
    (fun pfn ->
      Ramtab.set_state t.ramtab ~pfn Ramtab.Unused;
      Ramtab.clear_owner t.ramtab ~pfn;
      pool_put t pfn)
    (Frame_stack.to_list c.stack);
  List.iter (fun pfn -> ignore (Frame_stack.remove c.stack pfn))
    (Frame_stack.to_list c.stack);
  c.n <- 0

let unlink t c =
  (match c.node with
  | Some node when Ilist.active node -> Ilist.remove t.members node
  | _ -> ());
  c.node <- None;
  t.gsum <- t.gsum - c.g

let kill_victim t victim =
  victim.live <- false;
  victim.pending_rev <- None;
  unlink t victim;
  release_all_frames t victim;
  if !Obs.enabled then Obs.Qos_audit.mem_release ~dom:victim.domain;
  t.kill victim.domain

let revocation_ready _t c =
  match c.pending_rev with
  | None -> ()
  | Some rev -> Sync.Ivar.fill rev.ready ()

(* Pick the domain holding the most optimistic frames; ties go to the
   earliest-admitted holder (the fold direction the seed list had). *)
let pick_victim t ~requester =
  Ilist.fold
    (fun best c ->
      if c.live && c.domain <> requester.domain && c.n > c.g then
        match best with
        | Some b when b.n - b.g >= c.n - c.g -> best
        | _ -> Some c
      else best)
    None t.members

(* Transparent first: reclaim already-unused frames off the top of the
   victim's stack. Returns how many frames were recovered. *)
let transparent_reclaim t victim ~want =
  let got = ref 0 in
  let continue_ = ref true in
  while !continue_ && !got < want do
    if reclaim_top t victim then incr got else continue_ := false
  done;
  if !got > 0 then t.transparent_count <- t.transparent_count + 1;
  !got

let intrusive_reclaim t victim ~want =
  match victim.notify_revoke with
  | None ->
    (* A domain that cannot handle revocation notifications should not
       hold optimistic frames; it flunks the protocol immediately. *)
    kill_victim t victim;
    min want t.free_count
  | Some notify ->
    t.intrusive_count <- t.intrusive_count + 1;
    let started = Sim.now t.sim in
    let deadline = Time.add started t.deadline_span in
    let rev = { rev_k = want; ready = Sync.Ivar.create () } in
    victim.pending_rev <- Some rev;
    notify ~k:want ~deadline;
    (* Wait for the ready reply or the deadline, whichever first. *)
    let replied =
      Sync.Ivar.read_timeout rev.ready t.deadline_span <> None
    in
    victim.pending_rev <- None;
    let audit ~ok =
      if !Obs.enabled then begin
        let finished = Sim.now t.sim in
        Obs.Qos_audit.revocation_done ~now:finished ~dom:victim.domain
          ~deadline ~ok;
        Obs.Metrics.observe victim.revoke_latency
          (Time.to_us (Time.diff finished started))
      end
    in
    if not replied then begin
      audit ~ok:false;
      kill_victim t victim;
      want
    end
    else begin
      (* Verify: the top k frames must all be unused now. *)
      let got = ref 0 in
      let ok = ref true in
      while !ok && !got < rev.rev_k do
        if reclaim_top t victim then incr got else ok := false
      done;
      if !got < rev.rev_k then begin
        audit ~ok:false;
        kill_victim t victim;
        rev.rev_k
      end
      else begin
        audit ~ok:true;
        !got
      end
    end

(* How many frames to reclaim per revocation round: batching amortises
   the notification round trip and the victim's cleaning set-up over
   several frames ("release k frames by time T"). *)
let revocation_batch = 8

(* Ensure at least one free frame for a guaranteed allocation. *)
let rec make_free t ~requester =
  if t.free_count > 0 then true
  else begin
    Sync.Semaphore.acquire t.rev_lock;
    let result =
      if t.free_count > 0 then true
      else begin
        match pick_victim t ~requester with
        | None -> false
        | Some victim ->
          let want = max 1 (min revocation_batch (victim.n - victim.g)) in
          let got = transparent_reclaim t victim ~want in
          let got =
            if got > 0 then got else intrusive_reclaim t victim ~want
          in
          ignore got;
          t.free_count > 0
      end
    in
    Sync.Semaphore.release t.rev_lock;
    if result then true
    else if pick_victim t ~requester <> None then make_free t ~requester
    else false
  end

let alloc t c =
  if not c.live then None
  else if c.n < c.g then begin
    (* Guaranteed: must succeed, revoking optimistic frames if needed. *)
    if make_free t ~requester:c then begin
      match pool_take_any t with
      | Some pfn ->
        grant t c pfn;
        Some pfn
      | None -> None (* impossible while Σg <= nframes; defensive *)
    end
    else begin
      if !Obs.enabled then
        Obs.Qos_audit.guarantee_starved ~now:(Sim.now t.sim) ~dom:c.domain;
      None
    end
  end
  else if c.n < c.g + c.o && t.free_count > 0 then begin
    match pool_take_any t with
    | Some pfn ->
      grant t c pfn;
      Some pfn
    | None -> None
  end
  else None

(* Donate a frame from one client's stack to another's (PR 7: a frozen
   CoW template surrenders its resident frames to the share host, which
   then holds them on behalf of every tenant). The frame must be
   settled — unmapped and unshared — so the hand-over is a pure
   book-keeping move; no data copies, no pool transit. *)
let transfer t ~src ~dst pfn =
  if Ramtab.owner t.ramtab ~pfn <> Some src.domain then
    invalid_arg "Frames.transfer: frame not owned by source client";
  if Ramtab.state t.ramtab ~pfn <> Ramtab.Unused then
    Error (Frame_in_use { pfn })
  else if Ramtab.is_shared t.ramtab ~pfn then Error (Frame_in_use { pfn })
  else if not (dst.live && dst.n < dst.g + dst.o) then
    Error (Quota_exhausted { held = dst.n; quota = dst.g + dst.o })
  else begin
    if not (Frame_stack.remove src.stack pfn) then
      invalid_arg "Frames.transfer: frame not on source client's stack";
    src.n <- src.n - 1;
    let width = Ramtab.width t.ramtab ~pfn in
    Ramtab.set_owner t.ramtab ~pfn ~owner:dst.domain ~width;
    Frame_stack.push dst.stack pfn;
    dst.n <- dst.n + 1;
    Ok ()
  end

let free t c pfn =
  if Ramtab.owner t.ramtab ~pfn <> Some c.domain then
    invalid_arg "Frames.free: frame not owned by client";
  if Ramtab.state t.ramtab ~pfn <> Ramtab.Unused then
    invalid_arg "Frames.free: frame still in use";
  if not (Frame_stack.remove c.stack pfn) then
    invalid_arg "Frames.free: frame not on client's stack";
  Ramtab.clear_owner t.ramtab ~pfn;
  c.n <- c.n - 1;
  pool_put t pfn

let retire t c =
  if c.live then begin
    c.live <- false;
    unlink t c;
    release_all_frames t c;
    if !Obs.enabled then Obs.Qos_audit.mem_release ~dom:c.domain
  end
