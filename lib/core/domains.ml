open Engine
open Hw
open Sched

type t = {
  id : int;
  dname : string;
  sim : Sim.t;
  cpu : Cpu.t;
  cpu_client : Cpu.client;
  pdom : Pdom.t;
  mmu : Mmu.t;
  cost : Cost.t;
  fault_chan : Event_chan.t;
  fault_queue : Fault.t Queue.t;
  activations : (unit -> unit) Sync.Mailbox.t;
  mutable fault_handler : (Fault.t -> unit) option;
  (* The process currently executing a notification handler, if any:
     the no-IDC restriction applies to that process only (workers may
     run while the dispatcher is suspended mid-handler). *)
  mutable handler_proc : Proc.t option;
  mutable threads : Proc.t list;
  mutable alive : bool;
  mutable kill_hooks : (unit -> unit) list;
  mutable dispatcher : Proc.t option;
  mutable faults : int;
  m : metrics;
}

(* The domain's own telemetry handles, all labelled with its name. *)
and metrics = {
  fault_count : Obs.Metrics.counter;
  fault_rekicks : Obs.Metrics.counter;
  fault_failed : Obs.Metrics.counter;
  fault_deaths : Obs.Metrics.counter;
  fault_latency : Obs.Metrics.histogram;
}

let metrics label =
  { fault_count = Obs.Metrics.counter ~label "fault.count";
    fault_rekicks = Obs.Metrics.counter ~label "fault.rekicks";
    fault_failed = Obs.Metrics.counter ~label "fault.failed";
    fault_deaths = Obs.Metrics.counter ~label "domain.fault_deaths";
    fault_latency = Obs.Metrics.histogram ~label "fault.latency_us" }

let id t = t.id
let name t = t.dname
let pdom t = t.pdom
let cost t = t.cost
let sim t = t.sim
let alive t = t.alive

(* Domain-lifecycle failwiths (here and below): charging CPU to a
   removed contract, scheduling a dead domain, or IDC from inside an
   activation handler are all choreography bugs in the caller, not
   conditions a domain can recover from mid-simulation. *)
let consume_cpu t span =
  if span > 0 then
    match Cpu.consume t.cpu t.cpu_client span with
    | Ok () -> ()
    | Error `Removed -> failwith (t.dname ^ ": CPU contract removed")

let cpu_used t = Cpu.used t.cpu_client

let set_fault_handler t f = t.fault_handler <- Some f

let current_proc_is_handler t =
  match t.handler_proc with
  | None -> false
  | Some p -> (try Proc.self () == p with Failure _ -> false)

let assert_idc_allowed t what =
  if current_proc_is_handler t then
    failwith
      (Printf.sprintf
         "%s: IDC (%s) attempted inside an activation handler" t.dname what)

let queue_notification t f = Sync.Mailbox.send t.activations f

(* The activation dispatcher: the user-level event demultiplexer. Each
   queued notification costs an activation plus demux, charged to this
   domain, then runs with IDC disabled. The loop runs in [t.dispatcher],
   so that option is the handler process; it is cleared however the
   notification ends, [Killed] included. *)
let dispatcher_loop t () =
  let rec loop () =
    let notification = Sync.Mailbox.recv t.activations in
    consume_cpu t (t.cost.Cost.activation + t.cost.Cost.user_demux);
    t.handler_proc <- t.dispatcher;
    (match notification () with
    | () -> t.handler_proc <- None
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.handler_proc <- None;
      Printexc.raise_with_backtrace e bt);
    loop ()
  in
  loop ()

let drain_faults t () =
  ignore (Event_chan.ack t.fault_chan);
  let rec drain () =
    match Queue.take_opt t.fault_queue with
    | None -> ()
    | Some fault ->
      consume_cpu t t.cost.Cost.notify_handler;
      let act_span =
        if !Obs.enabled then
          Obs.Span.start ~now:(Sim.now t.sim) ~label:t.dname
            ~parent:fault.Fault.span "activation"
        else Obs.Span.none
      in
      (match t.fault_handler with
      | Some handler -> handler fault
      | None ->
        Sync.Ivar.fill fault.Fault.resolved
          (Fault.Failed "no fault handler registered"));
      Obs.Span.finish ~now:(Sim.now t.sim) act_span;
      drain ()
  in
  drain ()

let create ~sim ~id ~name ~cpu ~cpu_client ~pdom ~mmu ~cost () =
  let t =
    { id; dname = name; sim; cpu; cpu_client; pdom; mmu; cost;
      fault_chan = Event_chan.create ~name:(name ^ ".fault") ();
      fault_queue = Queue.create ();
      activations = Sync.Mailbox.create ();
      fault_handler = None; handler_proc = None; threads = []; alive = true;
      kill_hooks = []; dispatcher = None; faults = 0; m = metrics name }
  in
  let drain = drain_faults t in
  Event_chan.attach t.fault_chan (fun () -> queue_notification t drain);
  t.dispatcher <-
    Some (Proc.spawn ~name:(name ^ ".dispatch") sim (dispatcher_loop t));
  t

let faults_taken t = t.faults

let max_fault_retries = 8

let rec do_access t va kind ~attempt =
  if not t.alive then failwith (t.dname ^ ": domain is dead");
  match
    Mmu.access t.mmu ~rights:(Pdom.lookup t.pdom) ~asn:(Pdom.asn t.pdom) va
      kind
  with
  | Mmu.Ok { cost; _ } -> if cost > 0 then consume_cpu t cost; Ok ()
  | Mmu.Fault { kind = fk; cost } ->
    if attempt >= max_fault_retries then
      Error
        ( Fault.make ~va ~access:kind ~kind:fk ~sid:None ~now:(Sim.now t.sim),
          "fault persisted after retries" )
    else begin
      t.faults <- t.faults + 1;
      (* Kernel part of the fault: table walk already costed, plus
         context save, event transmission and the later activation —
         all charged to the faulting domain. *)
      consume_cpu t (cost + t.cost.Cost.context_save + t.cost.Cost.event_send);
      let pte = Mmu.lookup t.mmu ~vpn:(Addr.vpn_of_vaddr va) in
      let sid = if Pte.is_absent pte then None else Some (Pte.sid pte) in
      let fault =
        Fault.make ~va ~access:kind ~kind:fk ~sid ~now:(Sim.now t.sim)
      in
      if !Obs.enabled then begin
        Obs.Metrics.inc t.m.fault_count;
        fault.Fault.span <-
          Obs.Span.start ~now:fault.Fault.raised_at ~label:t.dname
            ~parent:Obs.Span.none "fault"
      end;
      Queue.add fault t.fault_queue;
      Event_chan.send t.fault_chan;
      let outcome =
        if not !Inject.enabled then Sync.Ivar.read fault.Fault.resolved
        else begin
          (* The chaos layer may drop or delay the fault notification.
             The fault stays queued, so waiting with patience and
             re-kicking the channel recovers from lost deliveries;
             only a persistently dead channel fails the access. *)
          let patience = Time.of_ms_float 500.0 in
          let max_kicks = 8 in
          let rec wait kicks =
            match Sync.Ivar.read_timeout fault.Fault.resolved patience with
            | Some o -> o
            | None ->
              if kicks >= max_kicks then
                Fault.Failed "fault notification lost"
              else begin
                if !Obs.enabled then Obs.Metrics.inc t.m.fault_rekicks;
                Event_chan.send t.fault_chan;
                wait (kicks + 1)
              end
          in
          wait 0
        end
      in
      if !Obs.enabled then begin
        let now = Sim.now t.sim in
        Obs.Span.finish ~now fault.Fault.span;
        Obs.Metrics.observe t.m.fault_latency
          (Time.to_us (Time.diff now fault.Fault.raised_at));
        match outcome with
        | Fault.Failed _ -> Obs.Metrics.inc t.m.fault_failed
        | Fault.Resolved -> ()
      end;
      (match outcome with
      | Fault.Resolved -> do_access t va kind ~attempt:(attempt + 1)
      | Fault.Failed msg -> Error (fault, msg))
    end

let try_access t va kind = do_access t va kind ~attempt:0

let access t va kind =
  match try_access t va kind with
  | Ok () -> ()
  | Error (fault, msg) -> raise (Fault.Unresolved (fault, msg))

let on_kill t f = t.kill_hooks <- f :: t.kill_hooks

let kill t =
  if t.alive then begin
    t.alive <- false;
    List.iter Proc.kill t.threads;
    (match t.dispatcher with Some d -> Proc.kill d | None -> ());
    (* Unblock any thread stuck on an unresolved fault. *)
    Queue.iter
      (fun f -> ignore (Sync.Ivar.try_fill f.Fault.resolved
                          (Fault.Failed "domain killed")))
      t.fault_queue;
    Queue.clear t.fault_queue;
    let hooks = t.kill_hooks in
    t.kill_hooks <- [];
    List.iter (fun f -> f ()) hooks
  end

(* A user thread that takes a fault its own driver cannot resolve
   (lost page contents, retired backing store, resolution livelock) is
   dead; per the self-paging contract the whole domain dies with it.
   The kill runs from a fresh process because [kill] also terminates
   the faulting thread itself. *)
let spawn_thread t ~name f =
  let body () =
    try f ()
    with Fault.Unresolved (_, _) ->
      if !Obs.enabled then Obs.Metrics.inc t.m.fault_deaths;
      ignore (Proc.spawn ~name:(t.dname ^ ".reaper") t.sim (fun () -> kill t))
  in
  let p = Proc.spawn ~name:(t.dname ^ "." ^ name) t.sim body in
  t.threads <- p :: t.threads;
  p
