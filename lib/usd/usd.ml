open Engine
open Sched
open Disk

type op = Read | Write

type media = { bad_lba : int; persistent : bool }
type txn_error = Media of media | Cancelled
type status = (unit, txn_error) result

type event =
  | Txn of { client : string; op : op; lba : int; nblocks : int;
             dur : Time.span }
  | Txn_error of { client : string; op : op; lba : int; nblocks : int;
                   dur : Time.span; media : media }
  | Alloc of { client : string }
  | Lax of { client : string; dur : Time.span }
  | Slack of { client : string; op : op; dur : Time.span }

type request = {
  op : op;
  lba : int;
  nblocks : int;
  completion : status Sync.Ivar.t;
}

type client = {
  edf : Edf.client;
  cqos : Qos.t;
  channel : request Io_channel.t;
  (* Lax allowance left in the current runnable stint; reset by each
     transaction and by each new allocation. *)
  mutable lax_left : Time.span;
  mutable idled : bool; (* lax expired: off the runnable queue until
                           the next allocation *)
  mutable live : bool;
  mutable txns : int;
  mutable bytes : int;
  mutable lax_used : Time.span;
  (* Instant the channel last went non-empty; None while empty. Used
     by the QoS auditor's backlogged-for-a-whole-period test. *)
  mutable backlogged_since : Time.t option;
}

type t = {
  sim : Sim.t;
  dm : Disk_model.t;
  (* Replenishes in admission order: the [Alloc] records it leads to
     are compared bit-for-bit by tests. *)
  edf : Edf.t;
  (* Streams indexed by EDF id, for the per-decision lookup. *)
  members : client Members.t;
  kick : Sync.Waitq.t;
  events : event Trace.t;
  laxity_enabled : bool;
  mutable running : bool;
}

let member t e = Members.find t.members e

let client_name (c : client) = c.edf.Edf.cname
let has_pending (c : client) = not (Io_channel.is_empty c.channel)

(* A stream is runnable until its lax allowance runs dry and
   backlogged while its channel holds a request. *)
let sync_flags t (c : client) =
  Edf.set_runnable t.edf c.edf (not c.idled);
  Edf.set_backlogged t.edf c.edf (has_pending c)

(* At each stream period boundary: feed the QoS auditor (cf. Cpu),
   then grant the new allocation — an idled client goes back on the
   runnable queue with a fresh lax allowance. *)
let on_boundary t e ~unused ~boundary ~grants:_ =
  let c = member t e in
  if !Obs.enabled then begin
    let period_start = Time.add boundary (-e.Edf.period) in
    let backlogged =
      match c.backlogged_since with
      | Some since -> since <= period_start
      | None -> false
    in
    Obs.Qos_audit.usd_boundary ~now:boundary ~stream:e.Edf.cname
      ~entitled:e.Edf.slice ~got:(e.Edf.slice - unused) ~backlogged
  end;
  c.idled <- false;
  c.lax_left <- c.cqos.Qos.laxity;
  sync_flags t c;
  Trace.record t.events (Sim.now t.sim) (Alloc { client = client_name c })

let create ?(rollover = true) ?(laxity_enabled = true) sim dm =
  let t =
    { sim; dm; edf = Edf.create ~rollover ~order:Edf.By_admission ();
      members = Members.create (); kick = Sync.Waitq.create ();
      events = Trace.create (); laxity_enabled; running = false }
  in
  Edf.set_boundary_hook t.edf (on_boundary t);
  t

let qos (c : client) = c.cqos
let txn_count (c : client) = c.txns
let bytes_moved (c : client) = c.bytes
let used_time (c : client) = c.edf.Edf.used_total
let lax_time (c : client) = c.lax_used

let trace t = t.events
let disk t = t.dm
let utilisation t = Edf.utilisation t.edf

let execute_txn t (c : client) ~slack =
  let req = Io_channel.recv c.channel in
  if Io_channel.is_empty c.channel then begin
    c.backlogged_since <- None;
    sync_flags t c
  end;
  (* Injected client stall: the client's driver domain is wedged (e.g.
     a user-level pager not responding). The disk head is not held —
     the stall burns the client's own CPU-side time and is charged to
     its disk budget, so other clients' EDF schedules are untouched. *)
  (if !Inject.enabled then
     match Inject.stall ~site:(client_name c) with
     | None -> ()
     | Some d ->
       Proc.sleep d;
       if slack then Edf.charge_slack c.edf d else Edf.charge c.edf d);
  let now = Sim.now t.sim in
  let result =
    Disk_model.service_result t.dm ~now
      ~op:(match req.op with Read -> Disk_model.Read | Write -> Disk_model.Write)
      ~lba:req.lba ~nblocks:req.nblocks
  in
  let dur = match result with Ok d -> d | Error (d, _) -> d in
  Proc.sleep dur;
  if slack then Edf.charge_slack c.edf dur else Edf.charge c.edf dur;
  c.txns <- c.txns + 1;
  c.bytes <- c.bytes + (req.nblocks * (Disk_model.params t.dm).Disk_params.block_size);
  c.lax_left <- c.cqos.Qos.laxity;
  let ev =
    match result with
    | Error (_, { Disk_model.bad_lba; persistent }) ->
      Txn_error { client = client_name c; op = req.op; lba = req.lba;
                  nblocks = req.nblocks; dur;
                  media = { bad_lba; persistent } }
    | Ok _ when slack -> Slack { client = client_name c; op = req.op; dur }
    | Ok _ ->
      Txn { client = client_name c; op = req.op; lba = req.lba;
            nblocks = req.nblocks; dur }
  in
  Trace.record t.events (Sim.now t.sim) ev;
  if !Obs.enabled then begin
    let label = client_name c in
    let nbytes =
      req.nblocks * (Disk_model.params t.dm).Disk_params.block_size
    in
    Obs.Metrics.add ~label "usd.bytes" nbytes;
    Obs.Metrics.inc ~label (if slack then "usd.slack_txns" else "usd.txns");
    (match result with
    | Error _ -> Obs.Metrics.inc ~label "usd.txn_errors"
    | Ok _ -> ());
    Obs.Metrics.observe ~label "usd.txn_us" (float_of_int dur /. 1e3)
  end;
  match result with
  | Ok _ -> Sync.Ivar.fill req.completion (Ok ())
  | Error (_, { Disk_model.bad_lba; persistent }) ->
    Sync.Ivar.fill req.completion (Error (Media { bad_lba; persistent }))

(* Off the runnable queue until the next allocation. *)
let idle t (c : client) =
  c.idled <- true;
  sync_flags t c

(* The earliest-deadline runnable client has no transaction pending:
   it holds the disk for up to its remaining lax allowance (bounded by
   its budget and by the next period boundary, after which the EDF
   decision must be re-taken). The wait is charged as if it were
   transaction time. *)
let lax_wait t (c : client) =
  let now = Sim.now t.sim in
  let bound = min c.lax_left c.edf.Edf.remaining in
  let bound =
    match Edf.next_deadline t.edf with
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
      Trace.record t.events (Sim.now t.sim)
        (Lax { client = client_name c; dur = elapsed });
      if !Obs.enabled then
        Obs.Metrics.add ~label:(client_name c) "usd.lax_ns" elapsed;
      if c.lax_left <= 0 then idle t c
    end
  end

let rec scheduler_loop t =
  let now = Sim.now t.sim in
  Edf.replenish_due t.edf ~now;
  (match Edf.select t.edf ~now with
  | Some e ->
    let c = member t e in
    if has_pending c then execute_txn t c ~slack:false
    else if t.laxity_enabled then lax_wait t c
    else
      (* No laxity (ablation): plain EDF marks the client idle until
         its next periodic allocation — the short-block problem. *)
      idle t c
  | None ->
    (* Nobody runnable with budget: optionally give slack time to an
       x-flagged client with queued work, else sleep to the next
       period boundary or new submission. *)
    (match Edf.select_slack t.edf ~now with
    | Some e -> execute_txn t (member t e) ~slack:true
    | None ->
      (match Edf.next_deadline t.edf with
      | Some d ->
        let span = max 1 (Time.diff d now) in
        ignore (Sync.Waitq.wait_timeout t.kick span)
      | None -> Sync.Waitq.wait t.kick)));
  scheduler_loop t

let ensure_running t =
  if not t.running then begin
    t.running <- true;
    ignore (Proc.spawn ~name:"usd-sched" t.sim (fun () -> scheduler_loop t))
  end

let admit t ~name ~qos ?(channel_depth = 64) () =
  match
    Edf.admit t.edf ~name ~period:qos.Qos.period ~slice:qos.Qos.slice
      ~extra:qos.Qos.extra ~now:(Sim.now t.sim) ()
  with
  | Error _ as e -> e
  | Ok e ->
    let c =
      { edf = e; cqos = qos; channel = Io_channel.create ~depth:channel_depth;
        lax_left = qos.Qos.laxity; idled = false; live = true; txns = 0;
        bytes = 0; lax_used = 0; backlogged_since = None }
    in
    Members.add t.members e c;
    sync_flags t c;
    ensure_running t;
    Sync.Waitq.broadcast t.kick;
    Ok c

(* Fill every request still queued on a dead client's channel with a
   retired status. Runs from [retire], and again from [submit] when a
   sender that was blocked on a full channel wakes up to find the
   client retired under it — either way, each queued ivar is filled
   exactly once (each request is received exactly once). *)
let drain_cancelled (c : client) =
  while not (Io_channel.is_empty c.channel) do
    let req = Io_channel.recv c.channel in
    Sync.Ivar.fill req.completion (Error Cancelled)
  done

let retire t (c : client) =
  c.live <- false;
  Edf.remove t.edf c.edf;
  Members.remove t.members c.edf;
  (* Unblock waiters: requests still queued will never be scheduled. *)
  drain_cancelled c;
  c.backlogged_since <- None;
  Sync.Waitq.broadcast t.kick

let submit t (c : client) op ~lba ~nblocks =
  if not c.live then Error `Retired
  else begin
    let completion = Sync.Ivar.create () in
    if Io_channel.is_empty c.channel then
      c.backlogged_since <- Some (Sim.now t.sim);
    Io_channel.send c.channel { op; lba; nblocks; completion };
    (* [send] may have blocked on a full channel; if the client was
       retired while we slept, the retire-time drain ran before our
       request landed and nothing will ever service it. Cancel it (and
       anything queued behind us) so no waiter blocks forever. *)
    if not c.live then drain_cancelled c else sync_flags t c;
    Sync.Waitq.broadcast t.kick;
    Ok completion
  end

let transact t c op ~lba ~nblocks =
  match submit t c op ~lba ~nblocks with
  | Error `Retired -> Error `Retired
  | Ok completion -> (
    match Sync.Ivar.read completion with
    | Ok () -> Ok ()
    | Error (Media m) -> Error (`Media m)
    | Error Cancelled -> Error `Cancelled)

(* The [_exn] variant is for callers that have already ruled out
   media errors and retirement (pristine disks, bound clients);
   hardened callers use [transact] and match on the typed errors. *)
let transact_exn t c op ~lba ~nblocks =
  match transact t c op ~lba ~nblocks with
  | Ok () -> ()
  | Error `Retired -> failwith "Usd.transact_exn: client retired"
  | Error `Cancelled -> failwith "Usd.transact_exn: cancelled"
  | Error (`Media m) ->
    failwith
      (Printf.sprintf "Usd.transact_exn: media error at lba %d" m.bad_lba)

let pp_op ppf = function
  | Read -> Format.pp_print_string ppf "R"
  | Write -> Format.pp_print_string ppf "W"

let pp_event ppf = function
  | Txn { client; op; lba; nblocks; dur } ->
    Format.fprintf ppf "txn %s %a lba=%d n=%d dur=%a" client pp_op op lba
      nblocks Time.pp_span dur
  | Txn_error { client; op; lba; nblocks; dur; media } ->
    Format.fprintf ppf "txn-error %s %a lba=%d n=%d dur=%a bad=%d%s" client
      pp_op op lba nblocks Time.pp_span dur media.bad_lba
      (if media.persistent then " persistent" else "")
  | Alloc { client } -> Format.fprintf ppf "alloc %s" client
  | Lax { client; dur } ->
    Format.fprintf ppf "lax %s dur=%a" client Time.pp_span dur
  | Slack { client; op; dur } ->
    Format.fprintf ppf "slack %s %a dur=%a" client pp_op op Time.pp_span dur
