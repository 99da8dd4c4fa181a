open Engine

type flow = {
  fname : string;
  ring : int Queue.t;
  ring_size : int;
  receivers : int Sync.Handoff.t;
  mutable received : int;
  mutable dropped : int;
  mutable open_ : bool;
}

type t = { flows : (string, flow) Hashtbl.t }

let create _sim = { flows = Hashtbl.create 8 }

let open_flow t ~name ?(ring = 32) () =
  if ring <= 0 then Error "ring size must be positive"
  else if Hashtbl.mem t.flows name then
    Error (Printf.sprintf "flow %S already open" name)
  else begin
    let f =
      { fname = name; ring = Queue.create (); ring_size = ring;
        receivers = Sync.Handoff.create (); received = 0; dropped = 0;
        open_ = true }
    in
    Hashtbl.replace t.flows name f;
    Ok f
  end

let close_flow t f =
  if f.open_ then begin
    f.open_ <- false;
    Hashtbl.remove t.flows f.fname
  end

let deliver t ~name ~bytes =
  match Hashtbl.find_opt t.flows name with
  | None -> `No_flow
  | Some f ->
    if not (Sync.Handoff.is_empty f.receivers) then begin
      f.received <- f.received + 1;
      Sync.Handoff.give f.receivers bytes;
      `Queued
    end
    else if Queue.length f.ring >= f.ring_size then begin
      (* User-safe: the flow's own ring is full; the loss is the flow
         owner's, nobody else's. *)
      f.dropped <- f.dropped + 1;
      `Dropped
    end
    else begin
      Queue.add bytes f.ring;
      f.received <- f.received + 1;
      `Queued
    end

let try_recv f = Queue.take_opt f.ring

let recv f =
  if Queue.is_empty f.ring then Sync.Handoff.recv f.receivers
  else Queue.take f.ring

let received f = f.received
let dropped f = f.dropped
let flow_name f = f.fname
