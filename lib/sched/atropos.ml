open Engine

type empty_client = Stays_runnable | Leaves_runnable

type 'w client = {
  edf : Edf.client;
  work : 'w;
  laxity : Time.span;
  mutable lax_left : Time.span;
  mutable lax_used : Time.span;
  mutable idled : bool;
  mutable live : bool;
  mutable backlogged_since : Time.t;
}

type 'w t = {
  sim : Sim.t;
  core : Edf.t;
  ops : 'w ops;
  pname : string;
  audit : Obs.Qos_audit.resource option;
  stays : bool; (* empty clients stay runnable *)
  (* Clients indexed by EDF id: the loop looks the winner up on every
     decision and every boundary, so this is one array read. *)
  mutable members : 'w client option array;
  kick : Sync.Waitq.t;
  mutable running : bool;
}

and 'w ops = {
  has_work : 'w -> bool;
  serve : 'w t -> 'w client -> slack:bool -> unit;
  alloc : 'w client -> unit;
  lax : 'w client -> Time.span -> unit;
}

let never = max_int

let name c = c.edf.Edf.cname
let sim t = t.sim
let utilisation t = Edf.utilisation t.core
let kick t = Sync.Waitq.broadcast t.kick

let member t (e : Edf.client) =
  match t.members.(e.id) with
  | Some c -> c
  | None -> invalid_arg "Atropos: not a member"

(* Runnable: not idled, and either work queued, a lax allowance, or
   the resource keeps empty clients runnable. Backlogged: work
   queued. *)
let sync_flags t c =
  let busy = t.ops.has_work c.work in
  Edf.set_runnable t.core c.edf
    ((not c.idled) && (busy || c.laxity > 0 || t.stays));
  Edf.set_backlogged t.core c.edf busy

(* Off the runnable queue until the next allocation. *)
let idle t c =
  c.idled <- true;
  sync_flags t c

(* At each period boundary: feed the QoS auditor the slice against
   what was consumed and whether the client spent the whole period
   with work queued, then grant the new allocation — an idled client
   goes back on the runnable queue with a fresh lax allowance. *)
let on_boundary t e ~unused ~boundary ~grants:_ =
  let c = member t e in
  (match t.audit with
  | Some resource when !Obs.enabled ->
    Obs.Qos_audit.boundary resource ~now:boundary ~name:e.Edf.cname
      ~entitled:e.Edf.slice ~got:(e.Edf.slice - unused)
      ~backlogged:(c.backlogged_since <= Time.add boundary (-e.Edf.period))
  | _ -> ());
  c.idled <- false;
  c.lax_left <- c.laxity;
  sync_flags t c;
  t.ops.alloc c

let create ~name ?rollover ?order ?audit ~empty sim ops =
  let t =
    { sim; core = Edf.create ?rollover ?order (); ops; pname = name; audit;
      stays =
        (match empty with Stays_runnable -> true | Leaves_runnable -> false);
      members = [||]; kick = Sync.Waitq.create (); running = false }
  in
  Edf.set_boundary_hook t.core (on_boundary t);
  t

let charge c ~slack span =
  if slack then Edf.charge_slack c.edf span else Edf.charge c.edf span

(* The earliest-deadline runnable client has nothing queued: it holds
   the resource for up to its remaining lax allowance, bounded by its
   budget and by the next period boundary (after which the EDF
   decision must be re-taken), charged as if it were service time. *)
let lax_wait t c =
  let now = Sim.now t.sim in
  let bound = min c.lax_left c.edf.Edf.remaining in
  let bound =
    match Edf.next_deadline t.core with
    | Some d -> min bound (max 1 (Time.diff d now))
    | None -> bound
  in
  if bound <= 0 then idle t c
  else begin
    ignore (Sync.Waitq.wait_timeout t.kick bound);
    let elapsed = Time.diff (Sim.now t.sim) now in
    if elapsed > 0 then begin
      Edf.charge c.edf elapsed;
      c.lax_left <- c.lax_left - elapsed;
      c.lax_used <- c.lax_used + elapsed;
      t.ops.lax c elapsed;
      if c.lax_left <= 0 then idle t c
    end
  end

(* A served request proves the client was not idling. *)
let serve t c ~slack =
  t.ops.serve t c ~slack;
  c.lax_left <- c.laxity

let rec loop t =
  let now = Sim.now t.sim in
  Edf.replenish_due t.core ~now;
  (match Edf.select t.core ~now with
  | Some e ->
    let c = member t e in
    if t.ops.has_work c.work then serve t c ~slack:false else lax_wait t c
  | None -> (
    match Edf.select_slack t.core ~now with
    | Some e -> serve t (member t e) ~slack:true
    | None -> (
      (* Sleep until new work, but never past the next boundary that
         can make a client runnable: any client's where empty clients
         stay runnable, else a backlogged one's. *)
      match
        if t.stays then Edf.next_deadline t.core
        else Edf.next_backlogged_deadline t.core
      with
      | Some d ->
        ignore (Sync.Waitq.wait_timeout t.kick (max 1 (Time.diff d now)))
      | None -> Sync.Waitq.wait t.kick)));
  loop t

let admit t ~name ~period ~slice ~extra ~laxity work =
  let now = Sim.now t.sim in
  match Edf.admit t.core ~name ~period ~slice ~extra ~now () with
  | Error reason -> Error reason
  | Ok e ->
    let c =
      { edf = e; work; laxity; lax_left = laxity; lax_used = 0; idled = false;
        live = true; backlogged_since = never }
    in
    let n = Array.length t.members in
    if e.id >= n then begin
      let slots = Array.make (max 16 (2 * (e.id + 1))) None in
      Array.blit t.members 0 slots 0 n;
      t.members <- slots
    end;
    t.members.(e.id) <- Some c;
    sync_flags t c;
    if not t.running then begin
      t.running <- true;
      ignore (Proc.spawn ~name:t.pname t.sim (fun () -> loop t))
    end;
    Ok c

let remove t c =
  c.live <- false;
  c.backlogged_since <- never;
  Edf.remove t.core c.edf;
  t.members.(c.edf.Edf.id) <- None;
  kick t

let queued t c ~was_empty =
  if was_empty then c.backlogged_since <- Sim.now t.sim;
  sync_flags t c;
  kick t

let taken t c =
  if not (t.ops.has_work c.work) then begin
    c.backlogged_since <- never;
    sync_flags t c
  end
