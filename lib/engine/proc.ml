exception Killed

type state = Running | Dead

(* Where a process's continuation waits while the process is not
   running. *)
type phase =
  | Active (* running, finished, or not yet parked *)
  | Start (* spawned; the start event is queued *)
  | Parked (* suspended; [k] holds the continuation *)

(* What the queued resume of a parked continuation does. *)
type resume = Not_queued | Continue | Interrupt

type t = {
  sim : Sim.t;
  name : string;
  mutable state : state;
  mutable kill_requested : bool;
  mutable phase : phase;
  (* The parked continuation while [phase] is [Parked], else
     [never_resumed]: kept in the record, so parking allocates nothing
     beyond the continuation itself. *)
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable body : unit -> unit; (* until the start event runs it *)
  mutable resume : resume;
  (* Bumped whenever a resume is queued, so a wake from an earlier
     suspension, or a second wake, sees a newer number and does
     nothing. *)
  mutable gen : int;
  (* [gen] when the process's timer was last armed, and whether that
     timer woke it. *)
  mutable timer_gen : int;
  mutable timed_out : bool;
  (* The timer's handle, re-armed in place whenever it is idle. *)
  mutable timer : Sim.handle;
  (* Runs the parked continuation: queued once per suspension, and
     once to start the body. Lazy only so that [spawn] can build it
     from a closure over the record itself. *)
  task : Sim.task Lazy.t;
  me : t option; (* [Some p], so a resume does not allocate it *)
  (* The effect handler's answer to [Park] and the timer callback,
     built once per process. *)
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_timer : unit -> unit;
  mutable terminate_hooks : (unit -> unit) list;
}

type waiter = { proc : t; wgen : int }

type _ Effect.t += Park : unit Effect.t

(* A continuation that is never resumed, captured once: what [k] holds
   while no continuation is parked. *)
let never_resumed : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref =
    ref None
  in
  let keep : (unit, unit) Effect.Deep.handler =
    { retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Park -> Some (fun k -> captured := Some k) | _ -> None)
    }
  in
  Effect.Deep.match_with Effect.perform Park keep;
  Option.get !captured

(* A timer handle queued on a simulator that never runs: {!Sim.rearm}
   refuses it, so a process's first timer takes a fresh handle. *)
let unarmed = Sim.at (Sim.create ()) Time.zero ignore

let current : t option ref = ref None

let self () =
  match !current with
  | Some p -> p
  (* API misuse, not a runtime condition: [self] outside a spawned
     process has no sensible value to return. *)
  | None -> failwith "Proc.self: not inside a process"

let sim p = p.sim
let name p = p.name

let current_sim () = sim (self ())

let is_alive p = p.state <> Dead

let finish p =
  if p.state <> Dead then begin
    p.state <- Dead;
    let hooks = List.rev p.terminate_hooks in
    p.terminate_hooks <- [];
    List.iter (fun f -> f ()) hooks
  end

let on_terminate p f =
  if p.state = Dead then f () else p.terminate_hooks <- f :: p.terminate_hooks

(* Run [f x] with [p] installed as the current process, restoring the
   previous one afterwards (processes can wake each other, so resumes
   nest). *)
let with_current p f x =
  let saved = !current in
  current := p.me;
  match f x with
  | () -> current := saved
  | exception e ->
    current := saved;
    raise e

let post p resume =
  p.gen <- p.gen + 1;
  p.resume <- resume;
  Sim.post_now (Lazy.force p.task)

let handler p : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> finish p);
    exnc =
      (fun e ->
        finish p;
        match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Park -> p.on_park | _ -> None) }

(* A kill that arrived after the caller's last check, with no resume
   queued, is raised here, as at any suspension point. *)
let park_continuation p k =
  match p.resume with
  | Not_queued when p.kill_requested -> Effect.Deep.discontinue k Killed
  | _ ->
    p.k <- k;
    p.phase <- Parked

(* Take the parked continuation (or the body) out of the record, then
   run it. *)
let continue_parked p =
  let phase = p.phase and resume = p.resume in
  p.phase <- Active;
  p.resume <- Not_queued;
  match phase with
  | Parked ->
    let k = p.k in
    p.k <- never_resumed;
    (match resume with
    | Interrupt -> Effect.Deep.discontinue k Killed
    | Continue | Not_queued -> Effect.Deep.continue k ())
  | Start ->
    let body = p.body in
    p.body <- ignore;
    Effect.Deep.match_with body () (handler p)
  | Active -> () (* never queued *)

let resume p =
  match p.phase with
  | Start when p.kill_requested ->
    p.phase <- Active;
    p.body <- ignore;
    finish p
  | Start | Parked | Active -> with_current p continue_parked p

let timer_fired p =
  if p.timer_gen = p.gen then begin
    p.timed_out <- true;
    post p Continue
  end

let spawn ?(name = "proc") simulator body =
  let rec p =
    { sim = simulator; name; state = Running; kill_requested = false;
      phase = Start; k = never_resumed; body; resume = Not_queued; gen = 0;
      timer_gen = -1; timed_out = false; timer = unarmed;
      task = lazy (Sim.task simulator (fun () -> resume p)); me = Some p;
      on_park = Some (fun k -> park_continuation p k);
      on_timer = (fun () -> timer_fired p); terminate_hooks = [] }
  in
  Sim.post_now (Lazy.force p.task);
  p

let check_kill p = if p.kill_requested then raise Killed

let waiter () =
  let p = self () in
  check_kill p;
  { proc = p; wgen = p.gen }

let park () = Effect.perform Park

let wake w = if w.wgen = w.proc.gen then post w.proc Continue

(* Arm the process's timer for [time]: it wakes the current suspension
   unless something else queues its resume first. The handle is
   re-armed in place unless a cancelled arm is still queued. *)
let arm p time =
  p.timer_gen <- p.gen;
  p.timed_out <- false;
  if not (Sim.rearm p.timer time) then p.timer <- Sim.at p.sim time p.on_timer

let park_timeout d =
  let p = self () in
  arm p (Time.add (Sim.now p.sim) d);
  park ();
  let woken = not p.timed_out in
  if woken then Sim.cancel p.timer;
  woken

(* If the process is killed mid-sleep, [Killed] is raised at the
   suspension point; cancel the pending timer so it does not keep the
   simulation clock advancing. *)
let sleep_at p time =
  check_kill p;
  arm p time;
  try park ()
  with Killed as e ->
    Sim.cancel p.timer;
    raise e

let sleep d =
  if d < 0 then invalid_arg "Proc.sleep: negative duration";
  let p = self () in
  sleep_at p (Time.add (Sim.now p.sim) d)

let sleep_until t =
  let p = self () in
  sleep_at p (Time.max t (Sim.now p.sim))

let yield () = sleep 0

let kill p =
  if p.state <> Dead then begin
    p.kill_requested <- true;
    match (p.phase, p.resume) with
    | Parked, Not_queued -> post p Interrupt
    | (Active | Start | Parked), _ ->
      (* Running right now, not yet started, or already due to resume:
         the flag is observed at the next suspension point (or at the
         start event). *)
      ()
  end

let join p =
  if p.state <> Dead then begin
    let w = waiter () in
    on_terminate p (fun () -> wake w);
    park ()
  end

module Fifo = struct
  type proc = t

  (* A ring of entries whose capacity is a power of two: entry i is
     [procs.(i)] (the process's own [Some p]) with its suspension
     number at [nums.(2i)] and the caller's int at [nums.(2i + 1)]. *)
  type t = {
    mutable procs : proc option array;
    mutable nums : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { procs = [||]; nums = [||]; head = 0; len = 0 }
  let is_empty q = q.len = 0

  let grow q =
    let cap = Array.length q.procs in
    let ncap = if cap = 0 then 4 else 2 * cap in
    let procs = Array.make ncap None and nums = Array.make (2 * ncap) 0 in
    for i = 0 to q.len - 1 do
      let j = (q.head + i) land (cap - 1) in
      procs.(i) <- q.procs.(j);
      nums.(2 * i) <- q.nums.(2 * j);
      nums.((2 * i) + 1) <- q.nums.((2 * j) + 1)
    done;
    q.procs <- procs;
    q.nums <- nums;
    q.head <- 0

  let push q x =
    let p = self () in
    check_kill p;
    if q.len = Array.length q.procs then grow q;
    let i = (q.head + q.len) land (Array.length q.procs - 1) in
    q.procs.(i) <- p.me;
    q.nums.(2 * i) <- p.gen;
    q.nums.((2 * i) + 1) <- x;
    q.len <- q.len + 1

  let check_first q = if q.len = 0 then invalid_arg "Proc.Fifo: empty"

  let first q =
    check_first q;
    q.nums.((2 * q.head) + 1)

  let set_first q x =
    check_first q;
    q.nums.((2 * q.head) + 1) <- x

  let wake_first q =
    check_first q;
    let i = q.head in
    let p = q.procs.(i) and gen = q.nums.(2 * i) in
    q.procs.(i) <- None;
    q.head <- (i + 1) land (Array.length q.procs - 1);
    q.len <- q.len - 1;
    match p with
    | Some p when p.gen = gen ->
      post p Continue;
      true
    | Some _ | None -> false

  let wake_all q =
    while q.len > 0 do
      ignore (wake_first q)
    done
end
