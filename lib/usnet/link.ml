open Engine
open Sched

type event =
  | Tx of { client : string; bytes : int; dur : Time.span }
  | Alloc of { client : string }
  | Slack_tx of { client : string; bytes : int; dur : Time.span }
  | Lax of { client : string; dur : Time.span }

type admit_error =
  | Bad_queue_depth of { depth : int }
  | Bad_qos of { reason : string }
  | Link_overcommit of { requested : float; available : float }

let admit_error_message = function
  | Bad_queue_depth _ -> "queue depth must be positive"
  | Bad_qos { reason } -> reason
  | Link_overcommit { requested; available } ->
    Printf.sprintf "admission refused: utilisation %.3f > 1"
      (requested +. (1. -. available))

let pp_admit_error ppf e =
  Format.pp_print_string ppf (admit_error_message e)

type packet = { bytes : int; completion : unit Sync.Ivar.t }

type client = {
  edf : Edf.client;
  ring : packet Queue.t;
  depth : int;
  senders : Proc.waiter Queue.t;
  laxity : Time.span;
  mutable lax_left : Time.span;
  mutable idled : bool;
      (* lax allowance spent with nothing to send: off the runnable
         queue until the next periodic allocation *)
  mutable live : bool;
  mutable packets : int;
  mutable sent_bytes : int;
  mutable lax_used : Time.span;
  label : string; (* "<link>.<client>", the metrics label *)
}

type t = {
  sim : Sim.t;
  lname : string;
  params : Net_params.t;
  (* Replenishes in admission order, the order of the [Alloc] trace
     records. *)
  edf : Edf.t;
  (* Clients indexed by EDF id, for the per-decision lookup. *)
  members : client Members.t;
  kick : Sync.Waitq.t;
  events : event Trace.t;
  mutable running : bool;
}

let name t = t.lname
let params t = t.params
let client_name (c : client) = c.edf.Edf.cname
let packets_sent (c : client) = c.packets
let bytes_sent (c : client) = c.sent_bytes
let used_time (c : client) = c.edf.Edf.used_total
let lax_time (c : client) = c.lax_used
let trace t = t.events
let utilisation t = Edf.utilisation t.edf

let member t e = Members.find t.members e
let has_pending (c : client) = not (Queue.is_empty c.ring)

(* A client with no laxity is runnable only with packets queued (the
   seed behaviour, bit-for-bit); a client holding a lax allowance
   stays runnable while empty and burns laxity when selected. It is
   backlogged while its ring holds a packet. *)
let sync_flags t (c : client) =
  Edf.set_runnable t.edf c.edf
    ((not c.idled) && (has_pending c || c.laxity > 0));
  Edf.set_backlogged t.edf c.edf (has_pending c)

(* A new allocation puts an idled client back on the runnable queue
   with a fresh lax allowance. *)
let on_boundary t e ~unused:_ ~boundary:_ ~grants:_ =
  let c = member t e in
  c.idled <- false;
  c.lax_left <- c.laxity;
  sync_flags t c;
  Trace.record t.events (Sim.now t.sim) (Alloc { client = client_name c })

let create ?(name = "link") ?(params = Net_params.fast_ethernet)
    ?(rollover = true) sim =
  let t =
    { sim; lname = name; params;
      edf = Edf.create ~rollover ~order:Edf.By_admission ();
      members = Members.create (); kick = Sync.Waitq.create ();
      events = Trace.create (); running = false }
  in
  Edf.set_boundary_hook t.edf (on_boundary t);
  t

let gauges (c : client) =
  if !Obs.enabled then begin
    Obs.Metrics.set_gauge ~label:c.label "link.tx_bytes"
      (float_of_int c.sent_bytes);
    Obs.Metrics.set_gauge ~label:c.label "link.queue_depth"
      (float_of_int (Queue.length c.ring))
  end

let transmit_one t (c : client) ~slack =
  let pkt = Queue.pop c.ring in
  sync_flags t c;
  if not (Queue.is_empty c.senders) then Proc.wake (Queue.take c.senders);
  let dur = Net_params.tx_time t.params ~bytes:pkt.bytes in
  Proc.sleep dur;
  if slack then Edf.charge_slack c.edf dur else Edf.charge c.edf dur;
  c.packets <- c.packets + 1;
  c.sent_bytes <- c.sent_bytes + pkt.bytes;
  (* A completed transmission proves the client was not idling. *)
  c.lax_left <- c.laxity;
  Trace.record t.events (Sim.now t.sim)
    (if slack then Slack_tx { client = client_name c; bytes = pkt.bytes; dur }
     else Tx { client = client_name c; bytes = pkt.bytes; dur });
  gauges c;
  Sync.Ivar.fill pkt.completion ()

(* Lax allowance spent: off the runnable queue until the next
   allocation. *)
let idle t (c : client) =
  c.idled <- true;
  sync_flags t c

(* The earliest-deadline runnable client has nothing queued: a client
   with laxity holds its place on the runnable queue for up to its
   remaining lax allowance (bounded by its budget and the next period
   boundary), and the wait is charged as if it were wire time — the
   same mechanism the USD uses for disk transactions. Page-sized
   transfers are fragmented into many MTU packets with think time
   between them, so without laxity a bulk client loses the link at
   every inter-packet gap (the short-block problem, at network
   scale). *)
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
      if c.lax_left <= 0 then idle t c
    end
  end

let rec scheduler_loop t =
  let now = Sim.now t.sim in
  Edf.replenish_due t.edf ~now;
  (match Edf.select t.edf ~now with
  | Some e ->
    let c = member t e in
    if has_pending c then transmit_one t c ~slack:false else lax_wait t c
  | None ->
    (match Edf.select_slack t.edf ~now with
    | Some e -> transmit_one t (member t e) ~slack:true
    | None ->
      (* Sleep to the next period boundary of a client with queued
         packets, or until a new submission. *)
      (match Edf.next_backlogged_deadline t.edf with
      | Some d ->
        ignore (Sync.Waitq.wait_timeout t.kick (max 1 (Time.diff d now)))
      | None -> Sync.Waitq.wait t.kick)));
  scheduler_loop t

let ensure_running t =
  if not t.running then begin
    t.running <- true;
    ignore (Proc.spawn ~name:"link-sched" t.sim (fun () -> scheduler_loop t))
  end

let admit t ~name ~period ~slice ?(extra = false) ?(queue_depth = 64)
    ?(laxity = 0) () =
  if queue_depth <= 0 then Error (Bad_queue_depth { depth = queue_depth })
  else if laxity < 0 then
    Error (Bad_qos { reason = "laxity must be non-negative" })
  else
    let before = Edf.utilisation t.edf in
    match
      Edf.admit t.edf ~name ~period ~slice ~extra ~now:(Sim.now t.sim) ()
    with
    | Error reason ->
      (* Classify the EDF core's refusal: a well-formed guarantee that
         was still refused can only be bandwidth overcommit. *)
      if period > 0 && slice > 0 && slice <= period then
        Error
          (Link_overcommit
             { requested = float_of_int slice /. float_of_int period;
               available = 1. -. before })
      else Error (Bad_qos { reason })
    | Ok e ->
      let c =
        { edf = e; ring = Queue.create (); depth = queue_depth;
          senders = Queue.create (); laxity; lax_left = laxity;
          idled = false; live = true; packets = 0; sent_bytes = 0;
          lax_used = 0; label = t.lname ^ "." ^ e.Edf.cname }
      in
      Members.add t.members e c;
      sync_flags t c;
      ensure_running t;
      Sync.Waitq.broadcast t.kick;
      Ok c

let retire t (c : client) =
  c.live <- false;
  Edf.remove t.edf c.edf;
  Members.remove t.members c.edf;
  Sync.Waitq.broadcast t.kick

let send t (c : client) ~bytes =
  if not c.live then Error `Retired
  else begin
    if Queue.length c.ring >= c.depth then begin
      Queue.add (Proc.waiter ()) c.senders;
      Proc.park ()
    end;
    let completion = Sync.Ivar.create () in
    Queue.add { bytes; completion } c.ring;
    sync_flags t c;
    gauges c;
    Sync.Waitq.broadcast t.kick;
    Ok completion
  end

let transmit t c ~bytes =
  match send t c ~bytes with
  | Error `Retired -> Error `Retired
  | Ok completion ->
    Sync.Ivar.read completion;
    Ok ()
