open Engine

type rev_request = { k : int; frames : Frames.t; client : Frames.client }

type t = {
  dom : Domains.t;
  bindings : (int, Stretch_driver.t) Hashtbl.t;
  mutable fault_entry : Fault.t Entry.t option;
  mutable rev_entry : rev_request Entry.t option;
}

let driver_for t ~sid = Hashtbl.find_opt t.bindings sid

let drivers t = Hashtbl.fold (fun _ d acc -> d :: acc) t.bindings []

let the_fault_entry t = Option.get t.fault_entry
let the_rev_entry t = Option.get t.rev_entry

let finish (fault : Fault.t) outcome =
  ignore (Sync.Ivar.try_fill fault.Fault.resolved outcome)

(* Demultiplex the faulting stretch to its driver. *)
let dispatch t (fault : Fault.t) invoke ~on_retry =
  match fault.Fault.sid with
  | None ->
    finish fault (Fault.Failed "fault outside any stretch");
    `Done
  | Some sid ->
    (match driver_for t ~sid with
    | None ->
      finish fault (Fault.Failed "no stretch driver bound");
      `Done
    | Some driver ->
      Domains.consume_cpu t.dom (Domains.cost t.dom).Hw.Cost.driver_invoke;
      let disp_span =
        if !Obs.enabled then
          Obs.Span.start
            ~now:(Sim.now (Domains.sim t.dom))
            ~label:(Domains.name t.dom) ~parent:fault.Fault.span "mm.dispatch"
        else Obs.Span.none
      in
      let result = invoke driver fault in
      Obs.Span.finish ~now:(Sim.now (Domains.sim t.dom)) disp_span;
      (match result with
      | Stretch_driver.Success ->
        finish fault Fault.Resolved;
        `Done
      | Stretch_driver.Retry -> on_retry ()
      | Stretch_driver.Failure msg ->
        finish fault (Fault.Failed msg);
        `Done))

(* Notification-handler side: the driver's fast path (no IDC); a Retry
   blocks the faulting thread (it already is) and defers to a worker. *)
let fault_fast t fault =
  dispatch t fault
    (fun d -> d.Stretch_driver.fast)
    ~on_retry:(fun () -> `Defer)

(* Worker side: the driver's full path (IDC and blocking allowed). *)
let fault_slow t fault =
  ignore
    (dispatch t fault
       (fun d -> d.Stretch_driver.full)
       ~on_retry:(fun () ->
         finish fault (Fault.Failed "driver retried on the full path");
         `Done))

(* Revocation: cycle through the drivers requesting that each
   relinquish frames until enough have been freed, then reply. *)
let revoke_slow t { k; frames; client } =
  let freed = ref 0 in
  List.iter
    (fun d ->
      if !freed < k then
        freed := !freed + d.Stretch_driver.relinquish ~want:(k - !freed))
    (drivers t);
  Frames.revocation_ready frames client

let create dom =
  let t =
    { dom; bindings = Hashtbl.create 16; fault_entry = None; rev_entry = None }
  in
  t.fault_entry <-
    Some
      (Entry.create dom ~name:"mm" ~fast:(fault_fast t) ~slow:(fault_slow t)
         ());
  t.rev_entry <-
    Some
      (Entry.create dom ~name:"mm-revoke" ~fast:(fun _ -> `Defer)
         ~slow:(revoke_slow t) ());
  (* The kernel's fault dispatch already runs inside a costed
     notification, so enter the entry without a second activation. *)
  Domains.set_fault_handler dom (Entry.handle_now (the_fault_entry t));
  t

let bind t (s : Stretch.t) driver =
  driver.Stretch_driver.bind s;
  Hashtbl.replace t.bindings s.Stretch.sid driver

let unbind t (s : Stretch.t) = Hashtbl.remove t.bindings s.Stretch.sid

let wire_revocation t frames client =
  Frames.set_revocation_handler client (fun ~k ~deadline ->
      ignore deadline;
      Entry.notify (the_rev_entry t) { k; frames; client })

let faults_fast t = Entry.fast_handled (the_fault_entry t)
let faults_slow t = Entry.slow_handled (the_fault_entry t)
let revocations_handled t = Entry.slow_handled (the_rev_entry t)
