(* Tests for the discrete-event simulation kernel. *)

open Engine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Time --- *)

let time_units () =
  check "us" 1_000 (Time.us 1);
  check "ms" 1_000_000 (Time.ms 1);
  check "sec" 1_000_000_000 (Time.sec 1);
  check "of_us_float rounds" 1_500 (Time.of_us_float 1.5);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Time.to_ms (Time.of_ms_float 1.5));
  check "add" 15 (Time.add 5 10);
  check "diff" (-5) (Time.diff 5 10)

let time_pp () =
  let s v = Format.asprintf "%a" Time.pp v in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.000us" (s 1_000);
  Alcotest.(check string) "ms" "2.500ms" (s (Time.of_ms_float 2.5));
  Alcotest.(check string) "s" "3.000s" (s (Time.sec 3))

(* --- Heap --- *)

let heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  Heap.push h ~key:5 ~sub:0 "five";
  Heap.push h ~key:1 ~sub:0 "one";
  Heap.push h ~key:3 ~sub:0 "three";
  check "length" 3 (Heap.length h);
  check "peek min key" 1 (Heap.top_key h);
  Alcotest.(check string) "pop min" "one" (Heap.pop h);
  check "peek next key" 3 (Heap.top_key h);
  check "length after pop" 2 (Heap.length h);
  Alcotest.(check string) "pop next" "three" (Heap.pop h);
  Alcotest.(check string) "pop last" "five" (Heap.pop h);
  checkb "drained" true (Heap.is_empty h);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Heap.pop: empty heap") (fun () -> ignore (Heap.pop h))

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~key:7 ~sub:i v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list string)) "tie order" [ "a"; "b"; "c" ] order

let heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~sub:i k) keys;
      let popped = ref [] in
      while not (Heap.is_empty h) do
        let k = Heap.top_key h in
        if Heap.pop h <> k then failwith "value popped under another key";
        popped := k :: !popped
      done;
      List.rev !popped = List.sort compare keys)

(* --- Rng --- *)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let rng_deterministic () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.split a in
  checkb "split differs" true (Rng.int64 c <> Rng.int64 a)

(* The first 1,000 draws of seed 42, cycling through the four kinds
   of draw. Every seeded report depends on this stream, so a change to
   how the generator keeps its state must leave the digest as it is. *)
let rng_stream_pinned () =
  let r = Rng.create ~seed:42 in
  let b = Buffer.create 16_384 in
  for i = 0 to 999 do
    match i mod 4 with
    | 0 -> Printf.bprintf b "%Ld\n" (Rng.int64 r)
    | 1 -> Printf.bprintf b "%d\n" (Rng.int r 1_000_003)
    | 2 -> Printf.bprintf b "%h\n" (Rng.float r 1.0)
    | _ -> Printf.bprintf b "%b\n" (Rng.bool r)
  done;
  Alcotest.(check string) "md5" "f5c17a62377dc54e91b96868b7d0acc1"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Sim --- *)

let sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim (Time.ms 5) (fun () -> log := 5 :: !log));
  ignore (Sim.at sim (Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.at sim (Time.ms 3) (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check "clock" (Time.ms 5) (Sim.now sim)

let sim_same_instant_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 4 do
    ignore (Sim.at sim (Time.ms 1) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4 ]
    (List.rev !log)

let sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim (Time.ms 1) (fun () -> fired := true) in
  Sim.cancel h;
  Sim.cancel h;
  check "pending after cancel" 0 (Sim.pending sim);
  ignore (Sim.at sim (Time.ms 2) ignore);
  Sim.run sim;
  checkb "cancelled did not fire" false !fired;
  check "cancelled counted once" 1 (Sim.cancelled sim);
  check "executed" 1 (Sim.executed sim)

(* Scheduling and running an event allocates its handle (a 3-field
   record, 4 words) and nothing else: the heap stores keys in int
   arrays and [step] pops without building an option or tuple. *)
let sim_step_allocation () =
  let sim = Sim.create () in
  let f () = () in
  for _ = 1 to 1_000 do
    ignore (Sim.after sim 1 f)
  done;
  Sim.run sim;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sim.after sim 1 f);
    ignore (Sim.step sim)
  done;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  if per_event > 4.01 then
    Alcotest.failf "%.2f words per scheduled and executed event (want 4)"
      per_event;
  check "events executed" (1_000 + n) (Sim.executed sim)

let sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.at sim (Time.ms 1) (fun () -> incr fired));
  ignore (Sim.at sim (Time.ms 10) (fun () -> incr fired));
  Sim.run ~until:(Time.ms 5) sim;
  check "only first fired" 1 !fired;
  check "clock at limit" (Time.ms 5) (Sim.now sim);
  Sim.run sim;
  check "second fires on resume" 2 !fired

let sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Time.ms 2) (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Sim.at: 1.000ms is in the past (now 2.000ms)")
    (fun () -> ignore (Sim.at sim (Time.ms 1) (fun () -> ())))

(* A random schedule: each event's handler runs the script its id
   selects, and the top level interleaves scheduling, cancelling,
   [step] and [run ~until]. Cancels pick among the still-queued events
   (ascending id), so they hit both the heap and the same-instant
   queue. *)
type action = Schedule of { delay : int; absolute : bool } | Cancel of int
type top = Act of action | Step | Run_until of int

let action_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun absolute -> Schedule { delay = 0; absolute }) bool);
        ( 3,
          map2
            (fun delay absolute -> Schedule { delay; absolute })
            (int_range 1 4) bool );
        (1, map (fun k -> Cancel k) small_nat) ])

let schedule_gen =
  QCheck.Gen.(
    pair
      (array_size (return 8) (list_size (int_range 0 3) action_gen))
      (list_size (int_range 1 40)
         (frequency
            [ (3, map (fun a -> Act a) action_gen);
              (3, return Step);
              (1, map (fun d -> Run_until d) (int_range 0 5)) ])))

let print_schedule (scripts, prog) =
  let action = function
    | Schedule { delay; absolute } ->
      Printf.sprintf "%s %d" (if absolute then "at+" else "after") delay
    | Cancel k -> Printf.sprintf "cancel %d" k
  in
  let actions l = "[" ^ String.concat "; " (List.map action l) ^ "]" in
  let top = function
    | Act a -> action a
    | Step -> "step"
    | Run_until d -> Printf.sprintf "run ~until now+%d" d
  in
  String.concat " " (Array.to_list (Array.map actions scripts))
  ^ " / " ^ String.concat ", " (List.map top prog)

let event_cap = 200

(* Far past the last event: at most [event_cap] delays of 4 and 40 top
   ops of 5. *)
let drain = Run_until 1_000_000

(* What a schedule observably does: the (id, time) of every executed
   event, and after every top-level op the clock and the pending,
   executed, cancelled and pending-peak counts. The model's peak is the
   largest pending after any fired event, so the oracle also checks
   [Sim.pending_peak]. *)
type observed = { fired : (int * int) list; counts : int list list }

let run_schedule_sim (scripts, prog) =
  let sim = Sim.create () and fired = ref [] in
  let queued = Hashtbl.create 16 and created = ref 0 in
  let rec exec = function
    | Schedule { delay; absolute } ->
      if !created < event_cap then begin
        let id = !created in
        incr created;
        let fire () =
          Hashtbl.remove queued id;
          fired := (id, Sim.now sim) :: !fired;
          List.iter exec scripts.(id mod Array.length scripts)
        in
        Hashtbl.replace queued id
          (if absolute then Sim.at sim (Sim.now sim + delay) fire
           else Sim.after sim delay fire)
      end
    | Cancel k ->
      let ids = List.sort compare (Hashtbl.fold (fun id _ l -> id :: l) queued []) in
      if ids <> [] then begin
        let id = List.nth ids (k mod List.length ids) in
        Sim.cancel (Hashtbl.find queued id);
        Hashtbl.remove queued id
      end
  in
  let counts =
    List.map
      (fun op ->
        (match op with
        | Act a -> exec a
        | Step -> ignore (Sim.step sim)
        | Run_until d -> Sim.run ~until:(Sim.now sim + d) sim);
        [ Sim.now sim; Sim.pending sim; Sim.executed sim; Sim.cancelled sim;
          Sim.pending_peak sim ])
      (prog @ [ drain ])
  in
  { fired = List.rev !fired; counts }

(* The reference: one list of (time, seq, id), always run from its
   (time, seq) minimum. *)
let run_schedule_model (scripts, prog) =
  let clock = ref 0 and seq = ref 0 and queue = ref [] and created = ref 0 in
  let executed = ref 0 and cancelled = ref 0 and peak = ref 0 in
  let fired = ref [] in
  let rec exec = function
    | Schedule { delay; absolute = _ } ->
      if !created < event_cap then begin
        queue := (!clock + delay, !seq, !created) :: !queue;
        incr seq;
        incr created
      end
    | Cancel k ->
      let ids = List.sort compare (List.map (fun (_, _, id) -> id) !queue) in
      if ids <> [] then begin
        let id = List.nth ids (k mod List.length ids) in
        queue := List.filter (fun (_, _, i) -> i <> id) !queue;
        incr cancelled
      end
  and fire_next () =
    let ((time, _, id) as next) = List.hd (List.sort compare !queue) in
    queue := List.filter (fun e -> e != next) !queue;
    clock := time;
    incr executed;
    fired := (id, time) :: !fired;
    List.iter exec scripts.(id mod Array.length scripts);
    peak := max !peak (List.length !queue)
  in
  let run_until limit =
    while List.exists (fun (time, _, _) -> time <= limit) !queue do
      fire_next ()
    done;
    if !clock < limit then clock := limit
  in
  let counts =
    List.map
      (fun op ->
        (match op with
        | Act a -> exec a
        | Step -> if !queue <> [] then fire_next ()
        | Run_until d -> run_until (!clock + d));
        [ !clock; List.length !queue; !executed; !cancelled; !peak ])
      (prog @ [ drain ])
  in
  { fired = List.rev !fired; counts }

let sim_matches_reference =
  QCheck.Test.make ~name:"sim runs events in (time, seq) order of a reference list"
    ~count:300
    (QCheck.make ~print:print_schedule schedule_gen)
    (fun sched -> run_schedule_sim sched = run_schedule_model sched)

(* Allocation of the three process hand-offs every fault path takes,
   in words, each measured over [n] repetitions after a warm-up. *)
let words_per ~warm ~n f =
  f warm;
  let before = Gc.minor_words () in
  f n;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words name ~bound per =
  if per > bound +. 0.01 then
    Alcotest.failf "%s: %.2f words (bound %.0f)" name per bound

(* A draw allocates nothing but its boxed float result: the state is
   read and written unboxed. *)
let rng_draw_allocation () =
  let r = Rng.create ~seed:42 in
  let per draw =
    words_per ~warm:1_000 ~n:100_000 (fun n ->
        for _ = 1 to n do
          draw ()
        done)
  in
  check_words "int draw" ~bound:0.
    (per (fun () -> ignore (Sys.opaque_identity (Rng.int r 1000))));
  check_words "bool draw" ~bound:0.
    (per (fun () -> ignore (Sys.opaque_identity (Rng.bool r))));
  check_words "float draw" ~bound:2.
    (per (fun () -> ignore (Sys.opaque_identity (Rng.float r 1.0))))

(* Park, wake from outside, resume: the waiter (3 words), the
   continuation (2), kept unboxed in the process record, and the
   test's own option (2). The effect is a constant, its handler is
   built once per process, and the resume is a reusable task on the
   same-instant queue. *)
let proc_switch_allocation () =
  let sim = Sim.create () in
  let waiter = ref None in
  let rec loop () =
    waiter := Some (Proc.waiter ());
    Proc.park ();
    loop ()
  in
  ignore (Proc.spawn sim loop);
  ignore (Sim.step sim);
  let cycle n =
    for _ = 1 to n do
      Option.iter Proc.wake !waiter;
      ignore (Sim.step sim)
    done
  in
  check_words "park, wake, resume" ~bound:7.
    (words_per ~warm:1_000 ~n:10_000 cycle)

(* A sleep parks with no waiter and re-arms the process's timer handle
   in place: only the continuation (2) is new. *)
let proc_sleep_allocation () =
  let sim = Sim.create () in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           Proc.sleep 1
         done));
  ignore (Sim.step sim);
  let cycle n =
    for _ = 1 to n do
      ignore (Sim.step sim);
      ignore (Sim.step sim)
    done
  in
  check_words "sleep" ~bound:2. (words_per ~warm:1_000 ~n:10_000 cycle)

(* One client consuming 20 us at a time: the request is an entry of
   the client's FIFO and the scheduler's sleep re-arms its timer, so
   what is left is the three continuations (client, the scheduler's
   sleep and its idle wait) and the scheduler's [Edf.select] option. *)
let cpu_consume_allocation () =
  let sim = Sim.create () in
  let cpu = Sched.Cpu.create sim in
  let c =
    match
      Sched.Cpu.admit cpu ~name:"c" ~period:(Time.ms 10) ~slice:(Time.ms 5) ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "admission refused"
  in
  let consumed = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           ignore (Sched.Cpu.consume cpu c (Time.us 20));
           incr consumed
         done));
  let cycle n =
    let target = !consumed + n in
    while !consumed < target do
      ignore (Sim.step sim)
    done
  in
  check_words "20 us consume" ~bound:8. (words_per ~warm:1_000 ~n:10_000 cycle)

(* One pager's transactions through the USD, back to back: the request
   and its completion ivar, the channel hand-off, the loop's lax wait
   for the next submission and the disk service. The trace rows are
   written into preallocated chunks. *)
let usd_transact_words () =
  let sim = Sim.create () in
  let usd = Usbs.Usd.create sim (Disk.Disk_model.create ()) in
  let c =
    match
      Usbs.Usd.admit usd ~name:"c"
        ~qos:(Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ())
        ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "admission refused"
  in
  let served = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           Usbs.Usd.transact_exn usd c Usbs.Usd.Read
             ~lba:(!served * 16 mod 100_000) ~nblocks:16;
           incr served
         done));
  let cycle n =
    let target = !served + n in
    while !served < target do
      ignore (Sim.step sim)
    done
  in
  words_per ~warm:1_000 ~n:10_000 cycle

let usd_transact_allocation () =
  check_words "USD transact" ~bound:48. (usd_transact_words ())

(* One MTU packet at a time over the link: the packet and its ivar, the
   wake of the waiting loop and the wire-time sleep. The trace rows
   are written into preallocated chunks. *)
let link_transmit_words () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  let c =
    match
      Usnet.Link.admit link ~name:"c" ~period:(Time.ms 10)
        ~slice:(Time.ms 5) ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "admission refused"
  in
  let sent = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           ignore (Usnet.Link.transmit link c ~bytes:1500);
           incr sent
         done));
  let cycle n =
    let target = !sent + n in
    while !sent < target do
      ignore (Sim.step sim)
    done
  in
  words_per ~warm:1_000 ~n:10_000 cycle

let link_transmit_allocation () =
  check_words "link transmit" ~bound:28. (link_transmit_words ())

(* A waiter signalled before its timeout: the timer's handle, fresh
   each time because the cancelled one is still queued, and the
   continuation. The queue entry allocates nothing. *)
let waitq_timeout_allocation () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           ignore (Sync.Waitq.wait_timeout q (Time.ms 1))
         done));
  ignore (Sim.step sim);
  let cycle n =
    for _ = 1 to n do
      Sync.Waitq.broadcast q;
      ignore (Sim.step sim)
    done
  in
  check_words "signalled wait_timeout" ~bound:6.
    (words_per ~warm:1_000 ~n:10_000 cycle)

(* A fresh Ivar read before it is filled: the cell, its reader's
   waiter in its slot and the continuation, then the filled state. *)
let ivar_allocation () =
  let sim = Sim.create () in
  let iv = ref (Sync.Ivar.create ()) in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           let cell = Sync.Ivar.create () in
           iv := cell;
           Sync.Ivar.read cell
         done));
  ignore (Sim.step sim);
  let cycle n =
    for _ = 1 to n do
      Sync.Ivar.fill !iv ();
      ignore (Sim.step sim)
    done
  in
  check_words "Ivar create, read, fill" ~bound:11.
    (words_per ~warm:1_000 ~n:10_000 cycle)

(* A send to a blocked receiver: the value's cell on its way over and
   the continuation; the receiver's queue entry allocates nothing. *)
let mailbox_allocation () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create () in
  ignore
    (Proc.spawn sim (fun () ->
         while true do
           ignore (Sync.Mailbox.recv mb)
         done));
  ignore (Sim.step sim);
  let cycle n =
    for i = 1 to n do
      Sync.Mailbox.send mb i;
      ignore (Sim.step sim)
    done
  in
  check_words "Mailbox send, recv" ~bound:5.
    (words_per ~warm:1_000 ~n:10_000 cycle)

(* A process that calls [Cpu.consume] with a kill pending raises
   [Killed] before it queues a request: the client never becomes
   runnable and the scheduler is not kicked. *)
let cpu_consume_kill_pending () =
  let sim = Sim.create () in
  let cpu = Sched.Cpu.create sim in
  let c =
    match
      Sched.Cpu.admit cpu ~name:"c" ~period:(Time.ms 10) ~slice:(Time.ms 5) ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "admission refused"
  in
  Sim.run sim;
  let executed = Sim.executed sim and killed = ref false in
  let p =
    Proc.spawn sim (fun () ->
        Proc.kill (Proc.self ());
        try ignore (Sched.Cpu.consume cpu c (Time.us 20))
        with Proc.Killed as e ->
          killed := true;
          raise e)
  in
  Sim.run sim;
  checkb "killed in consume" true !killed;
  checkb "dead" false (Proc.is_alive p);
  checkb "no request queued" false (Sched.Cpu.edf_client c).Sched.Edf.runnable;
  check "only the start event ran" (executed + 1) (Sim.executed sim);
  check "nothing pending" 0 (Sim.pending sim);
  check "no CPU used" 0 (Sched.Cpu.used c)

(* --- Proc --- *)

let proc_sleep () =
  let sim = Sim.create () in
  let woke = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep (Time.ms 7);
         woke := Sim.now sim));
  Sim.run sim;
  check "woke at 7ms" (Time.ms 7) !woke

let proc_join () =
  let sim = Sim.create () in
  let order = ref [] in
  let p =
    Proc.spawn sim (fun () ->
        Proc.sleep (Time.ms 3);
        order := "worker" :: !order)
  in
  ignore
    (Proc.spawn sim (fun () ->
         Proc.join p;
         order := "joiner" :: !order));
  Sim.run sim;
  Alcotest.(check (list string)) "join order" [ "worker"; "joiner" ]
    (List.rev !order)

let proc_kill_mid_sleep () =
  let sim = Sim.create () in
  let cleaned = ref false in
  let reached = ref false in
  let p =
    Proc.spawn sim (fun () ->
        (try Proc.sleep (Time.sec 100)
         with Proc.Killed as e ->
           cleaned := true;
           raise e);
        reached := true)
  in
  ignore (Sim.after sim (Time.ms 1) (fun () -> Proc.kill p));
  Sim.run sim;
  checkb "cleanup ran" true !cleaned;
  checkb "body did not continue" false !reached;
  checkb "dead" false (Proc.is_alive p);
  (* The 100 s timer must have been cancelled. *)
  check "timer cancelled" 1 (Sim.cancelled sim);
  check "nothing pending" 0 (Sim.pending sim);
  check "clock stopped early" (Time.ms 1) (Sim.now sim)

(* An event due at the same instant as a timed wait's timer, and
   ordered before it, wakes the process: the timer then runs as a
   no-op, and the woken process's cancel finds it already run, so
   nothing is counted as cancelled and nothing stays pending. *)
let proc_woken_as_timer_fires () =
  let sim = Sim.create () in
  let waiter = ref None and woken = ref None in
  ignore (Sim.at sim 10 (fun () -> Option.iter Proc.wake !waiter));
  ignore
    (Proc.spawn sim (fun () ->
         waiter := Some (Proc.waiter ());
         woken := Some (Proc.park_timeout 10)));
  Sim.run sim;
  Alcotest.(check (option bool)) "woken, not timed out" (Some true) !woken;
  (* the wake, the start, the timer and the resume *)
  check "executed" 4 (Sim.executed sim);
  check "nothing pending" 0 (Sim.pending sim);
  check "nothing cancelled" 0 (Sim.cancelled sim)

(* A timed wait woken early leaves its cancelled timer queued, so the
   shorter sleep after it arms a fresh handle: the process wakes at
   the sleep's time, and the old timer's instant wakes nothing. *)
let proc_timer_rearm_after_cancel () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  let slept_to = ref Time.zero and woken = ref None and last = ref None in
  ignore
    (Proc.spawn sim (fun () ->
         woken := Some (Sync.Waitq.wait_timeout q (Time.ms 10));
         Proc.sleep (Time.ms 2);
         slept_to := Sim.now sim;
         last := Some (Sync.Waitq.wait_timeout q (Time.ms 20))));
  ignore (Sim.after sim (Time.ms 1) (fun () -> Sync.Waitq.broadcast q));
  Sim.run sim;
  Alcotest.(check (option bool)) "woken early" (Some true) !woken;
  check "sleep woke at its own time" (Time.ms 3) !slept_to;
  Alcotest.(check (option bool)) "last wait timed out" (Some false) !last;
  check "at its own time" (Time.ms 23) (Sim.now sim);
  check "the early wake's timer cancelled" 1 (Sim.cancelled sim);
  check "nothing pending" 0 (Sim.pending sim)

(* A kill mid-sleep cancels the timer also when the sleep re-armed the
   handle an earlier sleep used. *)
let proc_kill_rearmed_sleep () =
  let sim = Sim.create () in
  let p =
    Proc.spawn sim (fun () ->
        Proc.sleep (Time.ms 1);
        Proc.sleep (Time.sec 100))
  in
  ignore (Sim.after sim (Time.ms 2) (fun () -> Proc.kill p));
  Sim.run sim;
  checkb "dead" false (Proc.is_alive p);
  check "timer cancelled" 1 (Sim.cancelled sim);
  check "nothing pending" 0 (Sim.pending sim);
  check "clock stopped early" (Time.ms 2) (Sim.now sim)

let proc_on_terminate () =
  let sim = Sim.create () in
  let hooks = ref 0 in
  let p = Proc.spawn sim (fun () -> Proc.sleep (Time.ms 1)) in
  Proc.on_terminate p (fun () -> incr hooks);
  Sim.run sim;
  check "hook ran" 1 !hooks;
  Proc.on_terminate p (fun () -> incr hooks);
  check "late hook runs at once" 2 !hooks

let proc_kill_before_start () =
  let sim = Sim.create () in
  let ran = ref false in
  let p = Proc.spawn sim (fun () -> ran := true) in
  Proc.kill p;
  Sim.run sim;
  checkb "body never ran" false !ran;
  checkb "dead" false (Proc.is_alive p)

let proc_stale_wake_ignored () =
  let sim = Sim.create () in
  let waiters = ref [] and resumed = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 2 do
           waiters := Proc.waiter () :: !waiters;
           Proc.park ();
           incr resumed
         done));
  Sim.run sim;
  let first = List.hd !waiters in
  Proc.wake first;
  Sim.run sim;
  check "first wake resumed" 1 !resumed;
  Proc.wake first;
  check "stale wake queued nothing" 0 (Sim.pending sim);
  Sim.run sim;
  check "stale wake ignored" 1 !resumed;
  Proc.wake (List.hd !waiters);
  Sim.run sim;
  check "current wake resumed" 2 !resumed

(* Two wakes of one suspension queue one resume, and a wake after that
   resume queues nothing. *)
let proc_second_wake_ignored () =
  let sim = Sim.create () in
  let waiter = ref None and resumed = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         waiter := Some (Proc.waiter ());
         Proc.park ();
         incr resumed));
  Sim.run sim;
  let wake () = Option.iter Proc.wake !waiter in
  wake ();
  wake ();
  check "one resume queued" 1 (Sim.pending sim);
  Sim.run sim;
  wake ();
  check "a wake after the resume queued nothing" 0 (Sim.pending sim);
  check "resumed once" 1 !resumed

let proc_kill_after_wake () =
  let sim = Sim.create () in
  let waiter = ref None and continued = ref false in
  let registered = ref false and killed = ref false in
  let p =
    Proc.spawn sim (fun () ->
        waiter := Some (Proc.waiter ());
        Proc.park ();
        continued := true;
        try
          ignore (Proc.waiter ());
          registered := true;
          Proc.park ()
        with Proc.Killed as e ->
          killed := true;
          raise e)
  in
  Sim.run sim;
  Option.iter Proc.wake !waiter;
  Proc.kill p;
  Sim.run sim;
  checkb "resumed past the woken suspension" true !continued;
  checkb "killed at the next suspension" true !killed;
  checkb "next suspension never registered" false !registered;
  checkb "dead" false (Proc.is_alive p)

(* [self] fails outside a process, also after one has run and after
   one has died with an exception that escaped the event loop. *)
let proc_self_outside () =
  let outside () =
    Alcotest.check_raises "self outside a process"
      (Failure "Proc.self: not inside a process") (fun () ->
        ignore (Proc.self ()))
  in
  outside ();
  let sim = Sim.create () in
  let inside = ref "" in
  ignore
    (Proc.spawn ~name:"p" sim (fun () ->
         Proc.yield ();
         inside := Proc.name (Proc.self ())));
  ignore (Proc.spawn sim (fun () -> failwith "boom"));
  (match Sim.run sim with
  | () -> Alcotest.fail "the process's exception did not escape"
  | exception Failure _ -> ());
  outside ();
  Sim.run sim;
  Alcotest.(check string) "self inside" "p" !inside;
  outside ()

(* --- Sync --- *)

let ivar_basics () =
  let sim = Sim.create () in
  let iv = Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Proc.spawn sim (fun () -> got := Sync.Ivar.read iv));
  ignore (Sim.after sim (Time.ms 2) (fun () -> Sync.Ivar.fill iv 42));
  Sim.run sim;
  check "read value" 42 !got;
  checkb "try_fill refused" false (Sync.Ivar.try_fill iv 1);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sync.Ivar.fill iv 1)

let ivar_timeout () =
  let sim = Sim.create () in
  let first = ref None and second = ref None in
  let iv = Sync.Ivar.create () in
  ignore
    (Proc.spawn sim (fun () -> first := Some (Sync.Ivar.read_timeout iv (Time.ms 5))));
  ignore
    (Proc.spawn sim (fun () ->
         second := Some (Sync.Ivar.read_timeout iv (Time.ms 20))));
  ignore (Sim.after sim (Time.ms 10) (fun () -> Sync.Ivar.fill iv 7));
  Sim.run sim;
  Alcotest.(check (option (option int))) "timed out" (Some None) !first;
  Alcotest.(check (option (option int))) "delivered" (Some (Some 7)) !second

let mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 3 do
           got := Sync.Mailbox.recv mb :: !got
         done));
  ignore
    (Sim.after sim (Time.ms 1) (fun () ->
         List.iter (Sync.Mailbox.send mb) [ 1; 2; 3 ]));
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Sync.Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sync.Semaphore.acquire sem;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Proc.sleep (Time.ms 2);
    decr inside;
    Sync.Semaphore.release sem
  in
  for _ = 1 to 5 do
    ignore (Proc.spawn sim worker)
  done;
  Sim.run sim;
  check "mutual exclusion" 1 !max_inside;
  check "all done" 0 !inside

(* A timed-out waiter stays on its queue until the next broadcast, which
   finds its suspension over and leaves the process's next one (here a
   sleep) alone. *)
let waitq_timeout_then_broadcast () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  let woken = ref None and slept_to = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         woken := Some (Sync.Waitq.wait_timeout q (Time.ms 1));
         Proc.sleep (Time.ms 10);
         slept_to := Sim.now sim));
  ignore (Sim.after sim (Time.ms 2) (fun () -> Sync.Waitq.broadcast q));
  Sim.run sim;
  Alcotest.(check (option bool)) "timed out" (Some false) !woken;
  check "sleep ran its full length" (Time.ms 11) !slept_to

(* A process killed in [wait_timeout] leaves its timer queued, as
   [Ivar.read_timeout] does: it fires at its time and does nothing.
   The second case arms the timer on the handle a finished sleep
   used. *)
let waitq_timeout_killed () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  let reached = ref false in
  let p =
    Proc.spawn sim (fun () ->
        ignore (Sync.Waitq.wait_timeout q (Time.ms 10));
        reached := true)
  in
  ignore (Sim.after sim (Time.ms 1) (fun () -> Proc.kill p));
  Sim.run sim;
  checkb "body did not continue" false !reached;
  checkb "dead" false (Proc.is_alive p);
  check "timer fired at its time" (Time.ms 10) (Sim.now sim);
  check "nothing cancelled" 0 (Sim.cancelled sim);
  (* start, kill, the interrupted resume and the timer *)
  check "executed" 4 (Sim.executed sim);
  Sync.Waitq.broadcast q;
  check "broadcast to the dead waiter queued nothing" 0 (Sim.pending sim);
  let sim = Sim.create () in
  let p =
    Proc.spawn sim (fun () ->
        Proc.sleep (Time.ms 1);
        ignore (Sync.Waitq.wait_timeout q (Time.ms 10)))
  in
  ignore (Sim.after sim (Time.ms 2) (fun () -> Proc.kill p));
  Sim.run sim;
  checkb "re-armed: dead" false (Proc.is_alive p);
  check "re-armed: timer fired at its time" (Time.ms 11) (Sim.now sim);
  check "re-armed: nothing cancelled" 0 (Sim.cancelled sim);
  (* start, sleep timer, its resume, kill, the interrupted resume and
     the timer *)
  check "re-armed: executed" 6 (Sim.executed sim)

let waitq_timeout () =
  let sim = Sim.create () in
  let q = Sync.Waitq.create () in
  let r1 = ref None and r2 = ref None in
  ignore (Proc.spawn sim (fun () -> r1 := Some (Sync.Waitq.wait_timeout q (Time.ms 5))));
  ignore (Proc.spawn sim (fun () -> r2 := Some (Sync.Waitq.wait_timeout q (Time.ms 50))));
  ignore (Sim.after sim (Time.ms 10) (fun () -> Sync.Waitq.broadcast q));
  Sim.run sim;
  Alcotest.(check (option bool)) "timed out" (Some false) !r1;
  Alcotest.(check (option bool)) "signalled" (Some true) !r2

(* Filling an Ivar and broadcasting a Waitq wake their waiters oldest
   first. *)
let sync_wake_order () =
  let sim = Sim.create () in
  let iv = Sync.Ivar.create () and q = Sync.Waitq.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (Proc.spawn sim (fun () ->
           Sync.Ivar.read iv;
           log := i :: !log;
           Sync.Waitq.wait q;
           log := (10 + i) :: !log))
  done;
  ignore (Sim.after sim (Time.ms 1) (fun () -> Sync.Ivar.fill iv ()));
  ignore (Sim.after sim (Time.ms 2) (fun () -> Sync.Waitq.broadcast q));
  Sim.run sim;
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3; 11; 12; 13 ]
    (List.rev !log)

(* [Proc.Fifo] against a [Stdlib.Queue] of process ids. Each process
   waits for its turn to queue, pushes itself with its id and parks;
   woken, it logs its id and waits again. A killed process's entries
   stay queued and wake nothing. After every op the sim runs dry, and
   the log, each [wake_first] result and the head's int (or emptiness)
   must match the model. *)
type fifo_op = Push of int | Wake_first | Wake_all | Kill of int

let fifo_procs = 10

let fifo_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun i -> Push i) (int_bound (fifo_procs - 1)));
        (3, return Wake_first);
        (1, return Wake_all);
        (1, map (fun i -> Kill i) (int_bound (fifo_procs - 1))) ])

let print_fifo_op = function
  | Push i -> Printf.sprintf "push %d" i
  | Wake_first -> "wake_first"
  | Wake_all -> "wake_all"
  | Kill i -> Printf.sprintf "kill %d" i

let run_fifo_sim ops =
  let sim = Sim.create () and q = Proc.Fifo.create () and log = ref [] in
  let turn = Array.make fifo_procs None in
  let procs =
    Array.init fifo_procs (fun i ->
        Proc.spawn sim (fun () ->
            while true do
              turn.(i) <- Some (Proc.waiter ());
              Proc.park ();
              Proc.Fifo.push q i;
              Proc.park ();
              log := i :: !log
            done))
  in
  Sim.run sim;
  List.map
    (fun op ->
      let woke =
        match op with
        | Push i ->
          Option.iter Proc.wake turn.(i);
          None
        | Wake_first ->
          if Proc.Fifo.is_empty q then None else Some (Proc.Fifo.wake_first q)
        | Wake_all ->
          Proc.Fifo.wake_all q;
          None
        | Kill i ->
          Proc.kill procs.(i);
          None
      in
      Sim.run sim;
      let first =
        if Proc.Fifo.is_empty q then None else Some (Proc.Fifo.first q)
      in
      (List.rev !log, woke, first))
    ops

let run_fifo_model ops =
  let q = Queue.create () and log = ref [] in
  let alive = Array.make fifo_procs true in
  let queued = Array.make fifo_procs false in
  let wake () =
    let i = Queue.take q in
    let current = alive.(i) && queued.(i) in
    if current then begin
      queued.(i) <- false;
      log := i :: !log
    end;
    current
  in
  List.map
    (fun op ->
      let woke =
        match op with
        | Push i ->
          if alive.(i) && not queued.(i) then begin
            queued.(i) <- true;
            Queue.add i q
          end;
          None
        | Wake_first -> if Queue.is_empty q then None else Some (wake ())
        | Wake_all ->
          while not (Queue.is_empty q) do
            ignore (wake ())
          done;
          None
        | Kill i ->
          alive.(i) <- false;
          None
      in
      (List.rev !log, woke, Queue.peek_opt q))
    ops

let fifo_matches_queue =
  QCheck.Test.make ~name:"Proc.Fifo wakes in Stdlib.Queue order" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map print_fifo_op ops))
       QCheck.Gen.(list_size (int_range 1 60) fifo_op_gen))
    (fun ops -> run_fifo_sim ops = run_fifo_model ops)

(* --- Stats --- *)

let stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.138089935 (Stats.stddev s);
  Alcotest.(check (float 0.0)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 0.0)) "max" 9.0 (Stats.max_value s)

let stats_percentile () =
  let s = Stats.create ~keep_samples:true () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.5)) "p50" 50.5 (Stats.percentile s 50.0);
  Alcotest.(check (float 0.5)) "p95" 95.0 (Stats.percentile s 95.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Stats.percentile s 100.0)

let stats_percentile_edges () =
  let s = Stats.create ~keep_samples:true () in
  List.iter (Stats.add s) [ 7.0; 3.0; 5.0 ];
  Alcotest.(check (float 0.0)) "p0 is min" 3.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 0.0)) "p100 is max" 7.0 (Stats.percentile s 100.0);
  let one = Stats.create ~keep_samples:true () in
  Stats.add one 42.0;
  Alcotest.(check (float 0.0)) "single sample p0" 42.0 (Stats.percentile one 0.0);
  Alcotest.(check (float 0.0)) "single sample p50" 42.0
    (Stats.percentile one 50.0);
  Alcotest.(check (float 0.0)) "single sample p100" 42.0
    (Stats.percentile one 100.0);
  let empty = Stats.create ~keep_samples:true () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile empty 50.0));
  let raises p =
    match Stats.percentile s p with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "p < 0 rejected" true (raises (-1.0));
  Alcotest.(check bool) "p > 100 rejected" true (raises 100.5);
  Alcotest.(check bool) "nan p rejected" true (raises Float.nan)

let stats_mean_matches_oracle =
  QCheck.Test.make ~name:"stats mean matches naive computation" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

let series_mean_after () =
  let s = Stats.Series.create () in
  Stats.Series.add s (Time.sec 1) 10.0;
  Stats.Series.add s (Time.sec 2) 20.0;
  Stats.Series.add s (Time.sec 3) 30.0;
  Alcotest.(check (float 1e-9)) "all" 20.0 (Stats.Series.mean_after s Time.zero);
  Alcotest.(check (float 1e-9)) "tail" 25.0
    (Stats.Series.mean_after s (Time.sec 2))

(* --- Trace / Dynarray --- *)

let trace_between () =
  let names = [| "a"; "b"; "c" |] in
  let t = Trace.create (fun kind _ _ -> names.(kind)) in
  List.iter (fun (ts, kind) -> Trace.record0 t ts ~kind)
    [ (1, 0); (5, 1); (9, 2) ];
  Alcotest.(check int) "len" 3 (Trace.length t);
  Alcotest.(check (list (pair int string))) "window" [ (5, "b") ]
    (Trace.between t 2 9)

let dynarray_growth () =
  let d = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.add_last d i
  done;
  check "length" 100 (Dynarray.length d);
  check "get" 42 (Dynarray.get d 42);
  Dynarray.set d 42 1000;
  check "set" 1000 (Dynarray.get d 42);
  Alcotest.check_raises "oob" (Invalid_argument "Dynarray: index out of bounds")
    (fun () -> ignore (Dynarray.get d 100));
  check "fold" (99 * 100 / 2 + 1000 - 42)
    (Dynarray.fold_left ( + ) 0 d)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "engine.time",
      [ Alcotest.test_case "units" `Quick time_units;
        Alcotest.test_case "pretty-printing" `Quick time_pp ] );
    ( "engine.heap",
      [ Alcotest.test_case "push/pop/peek" `Quick heap_basic;
        Alcotest.test_case "ties are FIFO" `Quick heap_fifo_ties;
        qtest heap_sorts ] );
    ( "engine.rng",
      [ qtest rng_bounds;
        Alcotest.test_case "deterministic streams" `Quick rng_deterministic;
        Alcotest.test_case "first 1,000 draws pinned" `Quick rng_stream_pinned;
        Alcotest.test_case "draws allocate only a float result" `Quick
          rng_draw_allocation ] );
    ( "engine.sim",
      [ Alcotest.test_case "time ordering" `Quick sim_ordering;
        Alcotest.test_case "same-instant FIFO" `Quick sim_same_instant_fifo;
        Alcotest.test_case "cancellation" `Quick sim_cancel;
        Alcotest.test_case "run ~until" `Quick sim_until;
        Alcotest.test_case "an event allocates only its handle" `Quick
          sim_step_allocation;
        Alcotest.test_case "process switch allocation bound" `Quick
          proc_switch_allocation;
        Alcotest.test_case "sleep allocation bound" `Quick
          proc_sleep_allocation;
        Alcotest.test_case "20 us consume allocation bound" `Quick
          cpu_consume_allocation;
        Alcotest.test_case "USD transact allocation bound" `Quick
          usd_transact_allocation;
        Alcotest.test_case "link transmit allocation bound" `Quick
          link_transmit_allocation;
        Alcotest.test_case "signalled wait_timeout allocation bound" `Quick
          waitq_timeout_allocation;
        Alcotest.test_case "Ivar create, read, fill allocation bound" `Quick
          ivar_allocation;
        Alcotest.test_case "Mailbox send, recv allocation bound" `Quick
          mailbox_allocation;
        Alcotest.test_case "scheduling in the past" `Quick sim_past_raises;
        qtest sim_matches_reference ] );
    ( "engine.proc",
      [ Alcotest.test_case "sleep advances time" `Quick proc_sleep;
        Alcotest.test_case "join" `Quick proc_join;
        Alcotest.test_case "kill mid-sleep" `Quick proc_kill_mid_sleep;
        Alcotest.test_case "woken at the instant its timer fires" `Quick
          proc_woken_as_timer_fires;
        Alcotest.test_case "a sleep after an early wake takes its own time"
          `Quick proc_timer_rearm_after_cancel;
        Alcotest.test_case "kill mid-sleep on a re-armed timer" `Quick
          proc_kill_rearmed_sleep;
        Alcotest.test_case "on_terminate" `Quick proc_on_terminate;
        Alcotest.test_case "kill before start" `Quick proc_kill_before_start;
        Alcotest.test_case "a wake from an earlier suspension is ignored"
          `Quick proc_stale_wake_ignored;
        Alcotest.test_case "a second wake is ignored" `Quick
          proc_second_wake_ignored;
        Alcotest.test_case "kill between wake and resume" `Quick
          proc_kill_after_wake;
        Alcotest.test_case "consume with a kill pending queues nothing"
          `Quick cpu_consume_kill_pending;
        Alcotest.test_case "self outside a process" `Quick proc_self_outside ] );
    ( "engine.sync",
      [ Alcotest.test_case "ivar" `Quick ivar_basics;
        Alcotest.test_case "ivar timeout" `Quick ivar_timeout;
        Alcotest.test_case "mailbox fifo" `Quick mailbox_fifo;
        Alcotest.test_case "semaphore as mutex" `Quick semaphore_mutex;
        Alcotest.test_case "waitq timeout" `Quick waitq_timeout;
        Alcotest.test_case "a broadcast after a timeout wakes nothing" `Quick
          waitq_timeout_then_broadcast;
        Alcotest.test_case "a timer left by a killed wait_timeout" `Quick
          waitq_timeout_killed;
        Alcotest.test_case "waiters wake oldest first" `Quick sync_wake_order;
        qtest fifo_matches_queue ] );
    ( "engine.stats",
      [ Alcotest.test_case "moments" `Quick stats_moments;
        Alcotest.test_case "percentiles" `Quick stats_percentile;
        Alcotest.test_case "percentile edge cases" `Quick stats_percentile_edges;
        qtest stats_mean_matches_oracle;
        Alcotest.test_case "series mean_after" `Quick series_mean_after ] );
    ( "engine.trace",
      [ Alcotest.test_case "between" `Quick trace_between;
        Alcotest.test_case "dynarray" `Quick dynarray_growth ] ) ]
