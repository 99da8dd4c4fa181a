open Engine

type request = { mutable left : Time.span; wake : unit -> unit }

type client = {
  edf : Edf.client;
  pending : request Queue.t;
  mutable live : bool;
  (* Instant the pending queue last went non-empty; None while empty.
     The QoS auditor treats a client as backlogged over a period only
     when this predates the period's start. *)
  mutable backlogged_since : Time.t option;
}

type t = {
  sim : Sim.t;
  edf : Edf.t;
  (* Clients indexed by EDF id: the scheduler looks the winner up on
     every decision, so this must be O(1), not a list scan. *)
  members : (int, client) Hashtbl.t;
  kick : Sync.Waitq.t;
  mutable running : bool;
  (* Upper bound on one uninterrupted slack grant, so that budgeted
     clients never wait long behind a slack hog. *)
  slack_quantum : Time.span;
}

let member t e = Hashtbl.find t.members e.Edf.id

(* Feed the QoS auditor at every period boundary: contracted slice vs
   what was actually consumed, and whether the client spent the whole
   period with work queued. *)
let audit_boundary t e ~unused ~boundary ~grants:_ =
  if !Obs.enabled then begin
    let c = member t e in
    let period_start = Time.add boundary (-e.Edf.period) in
    let backlogged =
      match c.backlogged_since with
      | Some since -> since <= period_start
      | None -> false
    in
    Obs.Qos_audit.cpu_boundary ~now:boundary ~dom:e.Edf.cname
      ~entitled:e.Edf.slice ~got:(e.Edf.slice - unused) ~backlogged
  end

let create sim =
  let t =
    { sim; edf = Edf.create (); members = Hashtbl.create 64;
      kick = Sync.Waitq.create (); running = false; slack_quantum = Time.ms 1 }
  in
  Edf.set_boundary_hook t.edf (audit_boundary t);
  t

let name (c : client) = c.edf.Edf.cname
let used (c : client) = c.edf.Edf.used_total
let edf_client (c : client) = c.edf

let has_pending (c : client) = not (Queue.is_empty c.pending)

(* A client is runnable, and backlogged, exactly while it has a
   request queued. *)
let sync_flags t (c : client) =
  let busy = has_pending c in
  Edf.set_runnable t.edf c.edf busy;
  Edf.set_backlogged t.edf c.edf busy

let rec scheduler_loop t =
  let now = Sim.now t.sim in
  Edf.replenish_due t.edf ~now;
  match Edf.select t.edf ~now with
  | Some e -> run_chunk t e ~slack:false
  | None ->
    (match Edf.select_slack t.edf ~now with
    | Some e -> run_chunk t e ~slack:true
    | None ->
      (* Nothing runnable: wait for work, but never past the next
         period boundary of a client that still has queued work (its
         budget may return then). *)
      (match Edf.next_backlogged_deadline t.edf with
      | Some d ->
        let span = max 0 (Time.diff d now) in
        ignore (Sync.Waitq.wait_timeout t.kick span)
      | None -> Sync.Waitq.wait t.kick);
      scheduler_loop t)

and run_chunk t e ~slack =
  let c = member t e in
  let req = Queue.peek c.pending in
  let budget_cap = if slack then t.slack_quantum else max 0 e.Edf.remaining in
  let chunk = min req.left budget_cap in
  let chunk = max chunk 1 in
  Proc.sleep chunk;
  if slack then Edf.charge_slack e chunk else Edf.charge e chunk;
  req.left <- req.left - chunk;
  if req.left <= 0 then begin
    ignore (Queue.pop c.pending);
    if Queue.is_empty c.pending then begin
      c.backlogged_since <- None;
      sync_flags t c
    end;
    req.wake ()
  end;
  scheduler_loop t

let ensure_running t =
  if not t.running then begin
    t.running <- true;
    ignore (Proc.spawn ~name:"cpu-sched" t.sim (fun () -> scheduler_loop t))
  end

let admit t ~name ~period ~slice ?(extra = true) () =
  match Edf.admit t.edf ~name ~period ~slice ~extra ~now:(Sim.now t.sim) () with
  | Error _ as e -> e
  | Ok e ->
    let c =
      { edf = e; pending = Queue.create (); live = true;
        backlogged_since = None }
    in
    Hashtbl.replace t.members e.Edf.id c;
    sync_flags t c;
    ensure_running t;
    Ok c

let remove t (c : client) =
  c.live <- false;
  Edf.remove t.edf c.edf;
  Hashtbl.remove t.members c.edf.Edf.id;
  Sync.Waitq.broadcast t.kick

let consume t (c : client) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span = 0 then Ok ()
  else if not c.live then Error `Removed
  else begin
    Proc.suspend (fun wake ->
        if Queue.is_empty c.pending then
          c.backlogged_since <- Some (Sim.now t.sim);
        Queue.add { left = span; wake = (fun () -> wake ()) } c.pending;
        sync_flags t c;
        Sync.Waitq.broadcast t.kick);
    Ok ()
  end
