open Engine

type 'a t = {
  depth : int;
  items : 'a Queue.t;
  senders : Proc.Fifo.t;
  receivers : 'a Sync.Handoff.t;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Io_channel.create: depth must be positive";
  { depth; items = Queue.create (); senders = Proc.Fifo.create ();
    receivers = Sync.Handoff.create () }

let is_empty t = Queue.is_empty t.items

let enqueue t v =
  if Sync.Handoff.is_empty t.receivers then Queue.add v t.items
  else Sync.Handoff.give t.receivers v

let try_send t v =
  if Queue.length t.items >= t.depth && Sync.Handoff.is_empty t.receivers
  then false
  else begin
    enqueue t v;
    true
  end

let send t v =
  if not (try_send t v) then begin
    Proc.Fifo.push t.senders 0;
    Proc.park ();
    enqueue t v
  end

(* Take the oldest item: a slot frees, so wake the oldest blocked
   sender. *)
let take t =
  let v = Queue.take t.items in
  if not (Proc.Fifo.is_empty t.senders) then
    ignore (Proc.Fifo.wake_first t.senders);
  v

let try_recv t = if Queue.is_empty t.items then None else Some (take t)

let recv t =
  if Queue.is_empty t.items then Sync.Handoff.recv t.receivers else take t
