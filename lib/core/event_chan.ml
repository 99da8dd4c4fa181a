type t = {
  ev_name : string;
  mutable count : int;
  mutable acked : int;
  mutable notify : (unit -> unit) option;
  sends : Obs.Metrics.counter;
}

let create ?(name = "chan") () =
  { ev_name = name; count = 0; acked = 0; notify = None;
    sends = Obs.Metrics.counter ~label:name "event.sends" }

let deliver t = match t.notify with Some f -> f () | None -> ()

let send t =
  t.count <- t.count + 1;
  if !Obs.enabled then Obs.Metrics.inc t.sends;
  if not !Inject.enabled then deliver t
  else
    match Inject.chan ~name:t.ev_name with
    | Inject.Deliver -> deliver t
    | Inject.Drop -> ()
    | Inject.Delay d -> (
      (* Deliver late, through the simulator's timer wheel. Outside a
         process context (no clock to schedule against) the delay
         degenerates to immediate delivery. *)
      match Engine.Proc.current_sim () with
      | sim -> ignore (Engine.Sim.after sim d (fun () -> deliver t))
      | exception _ -> deliver t)

let count t = t.count
let pending t = t.count - t.acked

let ack t =
  let n = pending t in
  t.acked <- t.count;
  n

let attach t f = t.notify <- Some f
