open Engine

(* Each client's requests: its callers' suspensions, oldest first, each
   carrying the span it has left to run. *)
type client = Proc.Fifo.t Atropos.client
type t = Proc.Fifo.t Atropos.t

(* Upper bound on one uninterrupted slack grant, so that budgeted
   clients never wait long behind a slack hog. *)
let slack_quantum = Time.ms 1

let name (c : client) = Atropos.name c
let used (c : client) = c.edf.Edf.used_total
let edf_client (c : client) = c.edf

(* Run the head request for up to its budget (or a slack quantum);
   wake its caller once all of it has run. Requests only join at the
   tail, so the head is the same request after the sleep. *)
let run_chunk t (c : client) ~slack =
  let budget_cap = if slack then slack_quantum else max 0 c.edf.Edf.remaining in
  let chunk = max 1 (min (Proc.Fifo.first c.work) budget_cap) in
  Proc.sleep chunk;
  Atropos.charge c ~slack chunk;
  let left = Proc.Fifo.first c.work - chunk in
  if left > 0 then Proc.Fifo.set_first c.work left
  else begin
    ignore (Proc.Fifo.wake_first c.work);
    Atropos.taken t c
  end

let create sim =
  Atropos.create ~name:"cpu-sched" ~audit:Obs.Qos_audit.Cpu
    ~empty:Atropos.Leaves_runnable sim
    { has_work = (fun q -> not (Proc.Fifo.is_empty q)); serve = run_chunk;
      alloc = ignore; lax = (fun _ _ -> ()) }

let admit t ~name ~period ~slice ?(extra = true) () =
  Atropos.admit t ~name ~period ~slice ~extra ~laxity:0 (Proc.Fifo.create ())

let remove = Atropos.remove

let consume t (c : client) span =
  if span < 0 then invalid_arg "Cpu.consume: negative span";
  if span = 0 then Ok ()
  else if not c.live then Error `Removed
  else begin
    let was_empty = Proc.Fifo.is_empty c.work in
    Proc.Fifo.push c.work span;
    Atropos.queued t c ~was_empty;
    Proc.park ();
    Ok ()
  end
