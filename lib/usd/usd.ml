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

type stream = {
  channel : request Io_channel.t;
  mutable txns : int;
  mutable bytes : int;
  m : metrics;
}

(* The stream's telemetry handles, labelled with its client name. *)
and metrics = {
  m_bytes : Obs.Metrics.counter;
  m_txns : Obs.Metrics.counter;
  m_slack_txns : Obs.Metrics.counter;
  m_txn_errors : Obs.Metrics.counter;
  m_txn_us : Obs.Metrics.histogram;
  m_lax_ns : Obs.Metrics.counter;
}

let metrics label =
  { m_bytes = Obs.Metrics.counter ~label "usd.bytes";
    m_txns = Obs.Metrics.counter ~label "usd.txns";
    m_slack_txns = Obs.Metrics.counter ~label "usd.slack_txns";
    m_txn_errors = Obs.Metrics.counter ~label "usd.txn_errors";
    m_txn_us = Obs.Metrics.histogram ~label "usd.txn_us";
    m_lax_ns = Obs.Metrics.counter ~label "usd.lax_ns" }

type client = stream Atropos.client

type t = {
  dm : Disk_model.t;
  events : event Trace.t;
  names : string Dynarray.t;
      (* client names by EDF id: ids are handed out in admission
         order from 0 *)
  (* Replenishes in admission order: the [Alloc] records it leads to
     are compared bit-for-bit by tests. *)
  loop : stream Atropos.t;
}

(* A trace row's kind bits: the event's tag, then the op, the media
   error's [persistent] bit and the client's EDF id. The fields follow
   the tag: [Txn] lba, nblocks, dur; [Txn_error] those and bad_lba;
   [Lax] and [Slack] dur; [Alloc] none. *)
let k_txn = 0
let k_txn_error = 1
let k_alloc = 2
let k_lax = 3
let k_slack = 4
let op_bit = 8
let persistent_bit = 16
let id_shift = 5

let kind tag (c : client) = tag lor (c.edf.Edf.id lsl id_shift)
let with_op k = function Read -> k | Write -> k lor op_bit

let decode names k row i =
  let client = Dynarray.get names (k lsr id_shift) in
  let op = if k land op_bit = 0 then Read else Write in
  match k land (op_bit - 1) with
  | 0 ->
    Txn { client; op; lba = row.(i); nblocks = row.(i + 1); dur = row.(i + 2) }
  | 1 ->
    Txn_error
      { client; op; lba = row.(i); nblocks = row.(i + 1); dur = row.(i + 2);
        media =
          { bad_lba = row.(i + 3); persistent = k land persistent_bit <> 0 } }
  | 2 -> Alloc { client }
  | 3 -> Lax { client; dur = row.(i) }
  | _ -> Slack { client; op; dur = row.(i) }

let client_name = Atropos.name
let txn_count (c : client) = c.work.txns
let bytes_moved (c : client) = c.work.bytes
let used_time (c : client) = c.edf.Edf.used_total
let lax_time (c : client) = c.lax_used

let trace t = t.events
let disk t = t.dm
let utilisation t = Atropos.utilisation t.loop

let execute_txn dm events loop (c : client) ~slack =
  let req = Io_channel.recv c.work.channel in
  Atropos.taken loop c;
  (* Injected client stall: the client's driver domain is wedged (e.g.
     a user-level pager not responding). The disk head is not held —
     the stall burns the client's own CPU-side time and is charged to
     its disk budget, so other clients' EDF schedules are untouched. *)
  (if !Inject.enabled then
     match Inject.stall ~site:(client_name c) with
     | None -> ()
     | Some d ->
       Proc.sleep d;
       Atropos.charge c ~slack d);
  let sim = Atropos.sim loop in
  let result =
    Disk_model.service_result dm ~now:(Sim.now sim)
      ~op:(match req.op with Read -> Disk_model.Read | Write -> Disk_model.Write)
      ~lba:req.lba ~nblocks:req.nblocks
  in
  let dur = match result with Ok d -> d | Error (d, _) -> d in
  Proc.sleep dur;
  Atropos.charge c ~slack dur;
  let nbytes = req.nblocks * (Disk_model.params dm).Disk_params.block_size in
  c.work.txns <- c.work.txns + 1;
  c.work.bytes <- c.work.bytes + nbytes;
  let now = Sim.now sim in
  (match result with
  | Error (_, { Disk_model.bad_lba; persistent }) ->
    let k = with_op (kind k_txn_error c) req.op in
    Trace.record4 events now
      ~kind:(if persistent then k lor persistent_bit else k)
      req.lba req.nblocks dur bad_lba
  | Ok _ when slack ->
    Trace.record1 events now ~kind:(with_op (kind k_slack c) req.op) dur
  | Ok _ ->
    Trace.record3 events now ~kind:(with_op (kind k_txn c) req.op) req.lba
      req.nblocks dur);
  if !Obs.enabled then begin
    let m = c.work.m in
    Obs.Metrics.add m.m_bytes nbytes;
    Obs.Metrics.inc (if slack then m.m_slack_txns else m.m_txns);
    (match result with
    | Error _ -> Obs.Metrics.inc m.m_txn_errors
    | Ok _ -> ());
    Obs.Metrics.observe m.m_txn_us (float_of_int dur /. 1e3)
  end;
  match result with
  | Ok _ -> Sync.Ivar.fill req.completion (Ok ())
  | Error (_, { Disk_model.bad_lba; persistent }) ->
    Sync.Ivar.fill req.completion (Error (Media { bad_lba; persistent }))

let create ?rollover sim dm =
  let names = Dynarray.create () in
  let events = Trace.create (decode names) in
  { dm; events; names;
    loop =
      Atropos.create ~name:"usd-sched" ?rollover ~order:Edf.By_admission
        ~audit:Obs.Qos_audit.Usd ~empty:Atropos.Stays_runnable sim
        { has_work = (fun s -> not (Io_channel.is_empty s.channel));
          serve = (fun loop c ~slack -> execute_txn dm events loop c ~slack);
          alloc =
            (fun c -> Trace.record0 events (Sim.now sim) ~kind:(kind k_alloc c));
          lax =
            (fun c dur ->
              Trace.record1 events (Sim.now sim) ~kind:(kind k_lax c) dur;
              if !Obs.enabled then Obs.Metrics.add c.work.m.m_lax_ns dur) } }

let admit t ~name ~qos ?(channel_depth = 64) () =
  let stream =
    { channel = Io_channel.create ~depth:channel_depth; txns = 0;
      bytes = 0; m = metrics name }
  in
  let r =
    Atropos.admit t.loop ~name ~period:qos.Qos.period ~slice:qos.Qos.slice
      ~extra:qos.Qos.extra ~laxity:qos.Qos.laxity stream
  in
  if Result.is_ok r then begin
    Dynarray.add_last t.names name;
    Atropos.kick t.loop
  end;
  r

(* Fill every request still queued on a dead client's channel with a
   retired status. Runs from [retire], and again from [submit] when a
   sender that was blocked on a full channel wakes up to find the
   client retired under it — either way, each queued ivar is filled
   exactly once (each request is received exactly once). *)
let drain_cancelled (c : client) =
  while not (Io_channel.is_empty c.work.channel) do
    let req = Io_channel.recv c.work.channel in
    Sync.Ivar.fill req.completion (Error Cancelled)
  done

(* Requests still queued will never be scheduled: fail them before
   the loop wakes. *)
let retire t (c : client) =
  drain_cancelled c;
  Atropos.remove t.loop c

let submit t (c : client) op ~lba ~nblocks =
  if not c.live then Error `Retired
  else begin
    let completion = Sync.Ivar.create () in
    let was_empty = Io_channel.is_empty c.work.channel in
    Io_channel.send c.work.channel { op; lba; nblocks; completion };
    (* [send] may have blocked on a full channel; if the client was
       retired while we slept, the retire-time drain ran before our
       request landed and nothing will ever service it. Cancel it (and
       anything queued behind us) so no waiter blocks forever. *)
    if not c.live then drain_cancelled c;
    Atropos.queued t.loop c ~was_empty;
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
