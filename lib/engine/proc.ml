exception Killed

type state = Running | Dead

(* Where a process's continuation waits while the process is not
   running. *)
type parked =
  | Active (* running, finished, or not suspended *)
  | Start of (unit -> unit) (* spawned; the start event is queued *)
  | Waiting : ('a, unit) Effect.Deep.continuation -> parked
  | Woken : ('a, unit) Effect.Deep.continuation * 'a -> parked
      (* resume queued, to continue with the value *)
  | Interrupted : ('a, unit) Effect.Deep.continuation -> parked
      (* resume queued, to raise [Killed] *)

type t = {
  sim : Sim.t;
  name : string;
  mutable state : state;
  mutable kill_requested : bool;
  mutable parked : parked;
  (* Bumped whenever a resume is queued, so a wake from an earlier
     suspension, or a second wake, sees a newer number and does
     nothing. *)
  mutable gen : int;
  (* Runs the parked continuation: queued once per suspension, and
     once to start the body. Lazy only so that [spawn] can build it
     from a closure over the record itself. *)
  task : Sim.task Lazy.t;
  me : t option; (* [Some p], so a resume does not allocate it *)
  mutable terminate_hooks : (unit -> unit) list;
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

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

let post p parked =
  p.gen <- p.gen + 1;
  p.parked <- parked;
  Sim.post_now (Lazy.force p.task)

let handler p : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> finish p);
    exnc =
      (fun e ->
        finish p;
        match e with Killed -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              if p.kill_requested then Effect.Deep.discontinue k Killed
              else begin
                p.parked <- Waiting k;
                let gen = p.gen in
                register (fun v -> if p.gen = gen then post p (Woken (k, v)))
              end)
        | _ -> None) }

(* Drop the parked continuation, then run it. *)
let continue_parked p =
  let parked = p.parked in
  p.parked <- Active;
  match parked with
  | Woken (k, v) -> Effect.Deep.continue k v
  | Interrupted k -> Effect.Deep.discontinue k Killed
  | Start body -> Effect.Deep.match_with body () (handler p)
  | Active | Waiting _ -> () (* never queued *)

let resume p =
  match p.parked with
  | Start _ when p.kill_requested ->
    p.parked <- Active;
    finish p
  | _ -> with_current p continue_parked p

let spawn ?(name = "proc") simulator body =
  let rec p =
    { sim = simulator; name; state = Running; kill_requested = false;
      parked = Start body; gen = 0;
      task = lazy (Sim.task simulator (fun () -> resume p)); me = Some p;
      terminate_hooks = [] }
  in
  Sim.post_now (Lazy.force p.task);
  p

let suspend register = Effect.perform (Suspend register)

(* If the process is killed mid-sleep, [Killed] is raised at the
   suspension point; cancel the pending timer so it does not keep the
   simulation clock advancing. *)
let sleep_at s time =
  let timer = ref None in
  try suspend (fun wake -> timer := Some (Sim.at s time wake))
  with Killed as e ->
    Option.iter Sim.cancel !timer;
    raise e

let sleep d =
  if d < 0 then invalid_arg "Proc.sleep: negative duration";
  let s = current_sim () in
  sleep_at s (Time.add (Sim.now s) d)

let sleep_until t =
  let s = current_sim () in
  sleep_at s (Time.max t (Sim.now s))

let yield () = sleep 0

let kill p =
  if p.state <> Dead then begin
    p.kill_requested <- true;
    match p.parked with
    | Waiting k -> post p (Interrupted k)
    | Active | Start _ | Woken _ | Interrupted _ ->
      (* Running right now, not yet started, or already due to resume:
         the flag is observed at the next suspension point (or at the
         start event). *)
      ()
  end

let join p = if p.state <> Dead then suspend (fun wake -> on_terminate p wake)
