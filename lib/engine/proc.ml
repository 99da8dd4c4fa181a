exception Killed

type state = Running | Dead

(* Where a process's continuation waits while the process is not
   running. *)
type parked =
  | Active (* running, finished, or not yet parked *)
  | Start of (unit -> unit) (* spawned; the start event is queued *)
  | Parked of (unit, unit) Effect.Deep.continuation

(* What the queued resume of a parked continuation does. *)
type resume = Not_queued | Continue | Interrupt

type t = {
  sim : Sim.t;
  name : string;
  mutable state : state;
  mutable kill_requested : bool;
  mutable parked : parked;
  mutable resume : resume;
  (* Bumped whenever a resume is queued, so a wake from an earlier
     suspension, or a second wake, sees a newer number and does
     nothing. *)
  mutable gen : int;
  (* [gen] when the process's timer was last armed, and whether that
     timer woke it. *)
  mutable timer_gen : int;
  mutable timed_out : bool;
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
  | _ -> p.parked <- Parked k

(* Drop the parked continuation, then run it. *)
let continue_parked p =
  let parked = p.parked and resume = p.resume in
  p.parked <- Active;
  p.resume <- Not_queued;
  match parked with
  | Parked k ->
    (match resume with
    | Interrupt -> Effect.Deep.discontinue k Killed
    | Continue | Not_queued -> Effect.Deep.continue k ())
  | Start body -> Effect.Deep.match_with body () (handler p)
  | Active -> () (* never queued *)

let resume p =
  match p.parked with
  | Start _ when p.kill_requested ->
    p.parked <- Active;
    finish p
  | _ -> with_current p continue_parked p

let timer_fired p =
  if p.timer_gen = p.gen then begin
    p.timed_out <- true;
    post p Continue
  end

let spawn ?(name = "proc") simulator body =
  let rec p =
    { sim = simulator; name; state = Running; kill_requested = false;
      parked = Start body; resume = Not_queued; gen = 0; timer_gen = -1;
      timed_out = false;
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

let is_waiting w = w.wgen = w.proc.gen

let wake w = if is_waiting w then post w.proc Continue

(* Arm the process's timer for [time]: it wakes the current suspension
   unless something else queues its resume first. *)
let arm p time =
  p.timer_gen <- p.gen;
  p.timed_out <- false;
  Sim.at p.sim time p.on_timer

let park_timeout d =
  let p = self () in
  let timer = arm p (Time.add (Sim.now p.sim) d) in
  park ();
  let woken = not p.timed_out in
  if woken then Sim.cancel timer;
  woken

(* If the process is killed mid-sleep, [Killed] is raised at the
   suspension point; cancel the pending timer so it does not keep the
   simulation clock advancing. *)
let sleep_at p time =
  check_kill p;
  let timer = arm p time in
  try park ()
  with Killed as e ->
    Sim.cancel timer;
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
    match (p.parked, p.resume) with
    | Parked _, Not_queued -> post p Interrupt
    | (Active | Start _ | Parked _), _ ->
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
