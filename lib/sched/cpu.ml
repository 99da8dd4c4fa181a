open Engine

type request = { mutable left : Time.span; waiter : Proc.waiter }

type client = request Queue.t Atropos.client
type t = request Queue.t Atropos.t

(* Upper bound on one uninterrupted slack grant, so that budgeted
   clients never wait long behind a slack hog. *)
let slack_quantum = Time.ms 1

let name (c : client) = Atropos.name c
let used (c : client) = c.edf.Edf.used_total
let edf_client (c : client) = c.edf

(* Run the head request for up to its budget (or a slack quantum);
   wake its caller once all of it has run. *)
let run_chunk t (c : client) ~slack =
  let req = Queue.peek c.work in
  let budget_cap = if slack then slack_quantum else max 0 c.edf.Edf.remaining in
  let chunk = max 1 (min req.left budget_cap) in
  Proc.sleep chunk;
  Atropos.charge c ~slack chunk;
  req.left <- req.left - chunk;
  if req.left <= 0 then begin
    ignore (Queue.pop c.work);
    Atropos.taken t c;
    Proc.wake req.waiter
  end

let create sim =
  Atropos.create ~name:"cpu-sched" ~audit:Obs.Qos_audit.Cpu
    ~empty:Atropos.Leaves_runnable sim
    { has_work = (fun q -> not (Queue.is_empty q)); serve = run_chunk;
      alloc = ignore; lax = (fun _ _ -> ()) }

let admit t ~name ~period ~slice ?(extra = true) () =
  Atropos.admit t ~name ~period ~slice ~extra ~laxity:0 (Queue.create ())

let remove = Atropos.remove

let consume t (c : client) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span = 0 then Ok ()
  else if not c.live then Error `Removed
  else begin
    let waiter = Proc.waiter () in
    let was_empty = Queue.is_empty c.work in
    Queue.add { left = span; waiter } c.work;
    Atropos.queued t c ~was_empty;
    Proc.park ();
    Ok ()
  end
