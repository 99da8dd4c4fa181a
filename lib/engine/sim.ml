(* Where a handle is: on a queue and due to run, on a queue but
   cancelled (it is dropped when popped), or on no queue. *)
type state = Queued | Cancelled | Idle

type handle = { mutable state : state; fn : unit -> unit; owner : t }

and t = {
  mutable clock : Time.t;
  queue : handle Heap.t;
  (* Events due at [clock], in scheduling order: a ring buffer whose
     capacity is a power of two. *)
  mutable now_q : handle array;
  mutable now_head : int;
  mutable now_len : int;
  mutable seq : int; (* orders the heap's events of one instant *)
  mutable live : int; (* scheduled and not cancelled *)
  mutable peak : int; (* largest [live] as a handler returned *)
  mutable executed : int;
  mutable cancelled_events : int;
  root_rng : Rng.t;
}

type task = handle

let create ?(seed = 42) () =
  { clock = Time.zero; queue = Heap.create (); now_q = [||]; now_head = 0;
    now_len = 0; seq = 0; live = 0; peak = 0; executed = 0;
    cancelled_events = 0; root_rng = Rng.create ~seed }

let now t = t.clock

let rng t = t.root_rng

let push_now t h =
  let cap = Array.length t.now_q in
  if t.now_len = cap then begin
    let q = Array.make (if cap = 0 then 16 else 2 * cap) h in
    for i = 0 to t.now_len - 1 do
      q.(i) <- t.now_q.((t.now_head + i) land (cap - 1))
    done;
    t.now_q <- q;
    t.now_head <- 0
  end;
  t.now_q.((t.now_head + t.now_len) land (Array.length t.now_q - 1)) <- h;
  t.now_len <- t.now_len + 1

let pop_now t =
  let h = t.now_q.(t.now_head) in
  t.now_head <- (t.now_head + 1) land (Array.length t.now_q - 1);
  t.now_len <- t.now_len - 1;
  h

(* Queue [h] at [time], after every event already scheduled for it. *)
let schedule t time h =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Sim.at: %a is in the past (now %a)" Time.pp time
         Time.pp t.clock);
  h.state <- Queued;
  if time = t.clock then push_now t h
  else begin
    Heap.push t.queue ~key:time ~sub:t.seq h;
    t.seq <- t.seq + 1
  end;
  t.live <- t.live + 1

let at t time fn =
  let h = { state = Idle; fn; owner = t } in
  schedule t time h;
  h

let after t d fn = at t (Time.add t.clock d) fn

let rearm h time =
  match h.state with
  | Idle ->
    schedule h.owner time h;
    true
  | Queued | Cancelled -> false

let task t fn = { state = Idle; fn; owner = t }

let post_now h =
  h.state <- Queued;
  push_now h.owner h;
  h.owner.live <- h.owner.live + 1

(* [live] is decremented exactly once per queuing: either at [cancel]
   time, or when a queued handle is popped and executed. A handle that
   already ran is not queued, so cancelling it does nothing. *)
let cancel h =
  match h.state with
  | Queued ->
    h.state <- Cancelled;
    h.owner.live <- h.owner.live - 1;
    h.owner.cancelled_events <- h.owner.cancelled_events + 1
  | Cancelled | Idle -> ()

let has_next t = t.now_len > 0 || not (Heap.is_empty t.queue)

(* Time of the next event; [has_next] must hold. *)
let next_time t = if t.now_len > 0 then t.clock else Heap.top_key t.queue

(* Pop the next event, allocating nothing, and run it unless it was
   cancelled. A heap event due now goes first: it was scheduled before
   the clock reached now, so its sequence number is below that of
   every event on the same-instant queue, and (time, seq) order is
   kept. A popped handle is idle before its handler runs, so the
   handler may re-arm it. *)
let fire_next t =
  let from_heap =
    t.now_len = 0
    || ((not (Heap.is_empty t.queue)) && Heap.top_key t.queue = t.clock)
  in
  let time = if from_heap then Heap.top_key t.queue else t.clock in
  let h = if from_heap then Heap.pop t.queue else pop_now t in
  match h.state with
  | Cancelled ->
    h.state <- Idle;
    false
  | Queued | Idle ->
    (* [Idle]: a task posted twice, whose first queuing already ran. *)
    h.state <- Idle;
    t.live <- t.live - 1;
    t.executed <- t.executed + 1;
    t.clock <- time;
    h.fn ();
    if t.live > t.peak then t.peak <- t.live;
    true

let rec step t = has_next t && (fire_next t || step t)

let run ?until t =
  let limit = match until with Some limit -> limit | None -> max_int in
  while has_next t && next_time t <= limit do
    ignore (fire_next t)
  done;
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()

let pending t = t.live
let pending_peak t = t.peak
let executed t = t.executed
let cancelled t = t.cancelled_events
