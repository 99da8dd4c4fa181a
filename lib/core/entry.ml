open Engine

type 'job t = {
  dom : Domains.t;
  fast : 'job -> [ `Done | `Defer ];
  slow : 'job -> unit;
  work : 'job Sync.Mailbox.t;
  mutable fast_count : int;
  mutable slow_count : int;
}

let depth t = Sync.Mailbox.length t.work
let fast_handled t = t.fast_count
let slow_handled t = t.slow_count

let defer t job = Sync.Mailbox.send t.work job

let worker_loop t () =
  let rec loop () =
    let job = Sync.Mailbox.recv t.work in
    (* Waking a worker goes through the user-level thread scheduler. *)
    Domains.consume_cpu t.dom (Domains.cost t.dom).Hw.Cost.ults_schedule;
    t.slow job;
    t.slow_count <- t.slow_count + 1;
    loop ()
  in
  loop ()

let create dom ~name ~fast ~slow () =
  let t =
    { dom; fast; slow; work = Sync.Mailbox.create ();
      fast_count = 0; slow_count = 0 }
  in
  ignore
    (Domains.spawn_thread dom ~name:(name ^ "-worker1") (worker_loop t));
  t

let handle_now t job =
  match t.fast job with
  | `Done -> t.fast_count <- t.fast_count + 1
  | `Defer -> defer t job

let notify t job =
  Domains.queue_notification t.dom (fun () ->
      Domains.consume_cpu t.dom (Domains.cost t.dom).Hw.Cost.notify_handler;
      handle_now t job)
