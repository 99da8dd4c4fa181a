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

type packet = { bytes : int; completion : unit Sync.Ivar.t }

type sender = {
  ring : packet Queue.t;
  depth : int;
  senders : Proc.waiter Queue.t;
  mutable packets : int;
  mutable sent_bytes : int;
  (* gauges labelled "<link>.<client>" *)
  tx_bytes : Obs.Metrics.gauge;
  queue_depth : Obs.Metrics.gauge;
}

type client = sender Atropos.client

type t = {
  lname : string;
  params : Net_params.t;
  events : event Trace.t;
  names : string Dynarray.t;
      (* client names by EDF id: ids are handed out in admission
         order from 0 *)
  (* Replenishes in admission order, the order of the [Alloc] trace
     records. *)
  loop : sender Atropos.t;
}

(* A trace row's kind bits: the event's tag, then the client's EDF id.
   [Tx] and [Slack_tx] carry bytes and dur, [Lax] dur, [Alloc]
   nothing. *)
let k_tx = 0
let k_alloc = 1
let k_slack_tx = 2
let k_lax = 3
let id_shift = 2

let kind tag (c : client) = tag lor (c.edf.Edf.id lsl id_shift)

let decode names k row i =
  let client = Dynarray.get names (k lsr id_shift) in
  match k land ((1 lsl id_shift) - 1) with
  | 0 -> Tx { client; bytes = row.(i); dur = row.(i + 1) }
  | 1 -> Alloc { client }
  | 2 -> Slack_tx { client; bytes = row.(i); dur = row.(i + 1) }
  | _ -> Lax { client; dur = row.(i) }

let name t = t.lname
let params t = t.params
let packets_sent (c : client) = c.work.packets
let bytes_sent (c : client) = c.work.sent_bytes
let used_time (c : client) = c.edf.Edf.used_total
let lax_time (c : client) = c.lax_used
let trace t = t.events

let gauges s =
  if !Obs.enabled then begin
    Obs.Metrics.set s.tx_bytes s.sent_bytes;
    Obs.Metrics.set s.queue_depth (Queue.length s.ring)
  end

let transmit_one params events loop (c : client) ~slack =
  let s = c.work in
  let pkt = Queue.pop s.ring in
  Atropos.taken loop c;
  if not (Queue.is_empty s.senders) then Proc.wake (Queue.take s.senders);
  let dur = Net_params.tx_time params ~bytes:pkt.bytes in
  Proc.sleep dur;
  Atropos.charge c ~slack dur;
  s.packets <- s.packets + 1;
  s.sent_bytes <- s.sent_bytes + pkt.bytes;
  Trace.record2 events
    (Sim.now (Atropos.sim loop))
    ~kind:(kind (if slack then k_slack_tx else k_tx) c)
    pkt.bytes dur;
  gauges s;
  Sync.Ivar.fill pkt.completion ()

let create ?(name = "link") ?(params = Net_params.fast_ethernet) ?rollover sim =
  let names = Dynarray.create () in
  let events = Trace.create (decode names) in
  { lname = name; params; events; names;
    loop =
      Atropos.create ~name:"link-sched" ?rollover ~order:Edf.By_admission
        ~empty:Atropos.Leaves_runnable sim
        { has_work = (fun s -> not (Queue.is_empty s.ring));
          serve =
            (fun loop c ~slack -> transmit_one params events loop c ~slack);
          alloc =
            (fun c -> Trace.record0 events (Sim.now sim) ~kind:(kind k_alloc c));
          lax =
            (fun c dur ->
              Trace.record1 events (Sim.now sim) ~kind:(kind k_lax c) dur) } }

let admit t ~name ~period ~slice ?(extra = false) ?(queue_depth = 64)
    ?(laxity = 0) () =
  if queue_depth <= 0 then Error (Bad_queue_depth { depth = queue_depth })
  else if laxity < 0 then
    Error (Bad_qos { reason = "laxity must be non-negative" })
  else
    let before = Atropos.utilisation t.loop in
    let label = t.lname ^ "." ^ name in
    let s =
      { ring = Queue.create (); depth = queue_depth; senders = Queue.create ();
        packets = 0; sent_bytes = 0;
        tx_bytes = Obs.Metrics.gauge ~label "link.tx_bytes";
        queue_depth = Obs.Metrics.gauge ~label "link.queue_depth" }
    in
    match Atropos.admit t.loop ~name ~period ~slice ~extra ~laxity s with
    | Error reason ->
      (* Classify the EDF core's refusal: a well-formed guarantee that
         was still refused can only be bandwidth overcommit. *)
      if period > 0 && slice > 0 && slice <= period then
        Error
          (Link_overcommit
             { requested = float_of_int slice /. float_of_int period;
               available = 1. -. before })
      else Error (Bad_qos { reason })
    | Ok c ->
      Dynarray.add_last t.names name;
      Atropos.kick t.loop;
      Ok c

let retire t c = Atropos.remove t.loop c

let send t (c : client) ~bytes =
  if not c.live then Error `Retired
  else begin
    let s = c.work in
    if Queue.length s.ring >= s.depth then begin
      Queue.add (Proc.waiter ()) s.senders;
      Proc.park ()
    end;
    let completion = Sync.Ivar.create () in
    let was_empty = Queue.is_empty s.ring in
    Queue.add { bytes; completion } s.ring;
    Atropos.queued t.loop c ~was_empty;
    gauges s;
    Ok completion
  end

let transmit t c ~bytes =
  match send t c ~bytes with
  | Error `Retired -> Error `Retired
  | Ok completion ->
    Sync.Ivar.read completion;
    Ok ()
