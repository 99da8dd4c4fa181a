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
  check "clock stopped early" (Time.ms 1) (Sim.now sim)

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
  let t = Trace.create () in
  List.iter (fun (ts, v) -> Trace.record t ts v)
    [ (1, "a"); (5, "b"); (9, "c") ];
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
        Alcotest.test_case "deterministic streams" `Quick rng_deterministic ] );
    ( "engine.sim",
      [ Alcotest.test_case "time ordering" `Quick sim_ordering;
        Alcotest.test_case "same-instant FIFO" `Quick sim_same_instant_fifo;
        Alcotest.test_case "cancellation" `Quick sim_cancel;
        Alcotest.test_case "run ~until" `Quick sim_until;
        Alcotest.test_case "an event allocates only its handle" `Quick
          sim_step_allocation;
        Alcotest.test_case "scheduling in the past" `Quick sim_past_raises ] );
    ( "engine.proc",
      [ Alcotest.test_case "sleep advances time" `Quick proc_sleep;
        Alcotest.test_case "join" `Quick proc_join;
        Alcotest.test_case "kill mid-sleep" `Quick proc_kill_mid_sleep;
        Alcotest.test_case "on_terminate" `Quick proc_on_terminate;
        Alcotest.test_case "kill before start" `Quick proc_kill_before_start ] );
    ( "engine.sync",
      [ Alcotest.test_case "ivar" `Quick ivar_basics;
        Alcotest.test_case "ivar timeout" `Quick ivar_timeout;
        Alcotest.test_case "mailbox fifo" `Quick mailbox_fifo;
        Alcotest.test_case "semaphore as mutex" `Quick semaphore_mutex;
        Alcotest.test_case "waitq timeout" `Quick waitq_timeout ] );
    ( "engine.stats",
      [ Alcotest.test_case "moments" `Quick stats_moments;
        Alcotest.test_case "percentiles" `Quick stats_percentile;
        Alcotest.test_case "percentile edge cases" `Quick stats_percentile_edges;
        qtest stats_mean_matches_oracle;
        Alcotest.test_case "series mean_after" `Quick series_mean_after ] );
    ( "engine.trace",
      [ Alcotest.test_case "between" `Quick trace_between;
        Alcotest.test_case "dynarray" `Quick dynarray_growth ] ) ]
