type handle = { mutable cancelled : bool; fn : unit -> unit; owner : t }

and t = {
  mutable clock : Time.t;
  queue : handle Heap.t;
  mutable seq : int;
  mutable live : int; (* scheduled and not cancelled *)
  mutable executed : int;
  mutable cancelled_events : int;
  root_rng : Rng.t;
}

let create ?(seed = 42) () =
  { clock = Time.zero; queue = Heap.create (); seq = 0; live = 0;
    executed = 0; cancelled_events = 0; root_rng = Rng.create ~seed }

let now t = t.clock

let rng t = t.root_rng

let at t time fn =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Sim.at: %a is in the past (now %a)" Time.pp time
         Time.pp t.clock);
  let h = { cancelled = false; fn; owner = t } in
  Heap.push t.queue ~key:time ~sub:t.seq h;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  h

let after t d fn = at t (Time.add t.clock d) fn

(* [live] is decremented exactly once per handle: either at [cancel]
   time, or when a non-cancelled handle is popped and executed. *)
let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    h.owner.live <- h.owner.live - 1;
    h.owner.cancelled_events <- h.owner.cancelled_events + 1
  end

(* Pop the next event, allocating nothing, and run it unless it was
   cancelled. *)
let fire_next t =
  let time = Heap.top_key t.queue in
  let h = Heap.pop t.queue in
  if h.cancelled then false
  else begin
    t.live <- t.live - 1;
    t.executed <- t.executed + 1;
    t.clock <- time;
    h.fn ();
    true
  end

let rec step t = (not (Heap.is_empty t.queue)) && (fire_next t || step t)

let run ?until t =
  let limit = match until with Some limit -> limit | None -> max_int in
  while (not (Heap.is_empty t.queue)) && Heap.top_key t.queue <= limit do
    ignore (fire_next t)
  done;
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()

let pending t = t.live
let executed t = t.executed
let cancelled t = t.cancelled_events
