(* Tests for the Atropos/EDF accounting core, the shared scheduler loop
   and the CPU scheduler. *)

open Engine
open Sched

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let admit_exn t ~name ~period ~slice ?extra () =
  match Edf.admit t ~name ~period ~slice ?extra ~now:Time.zero () with
  | Ok c -> c
  | Error e -> failwith e

(* --- Edf --- *)

let edf_admission () =
  let t = Edf.create () in
  let _a = admit_exn t ~name:"a" ~period:(Time.ms 100) ~slice:(Time.ms 60) () in
  let _b = admit_exn t ~name:"b" ~period:(Time.ms 100) ~slice:(Time.ms 40) () in
  Alcotest.(check (float 1e-9)) "fully booked" 1.0 (Edf.utilisation t);
  (match Edf.admit t ~name:"c" ~period:(Time.ms 100) ~slice:(Time.ms 1)
           ~now:Time.zero () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overbooked admission accepted");
  (match Edf.admit t ~name:"d" ~period:(Time.ms 10) ~slice:(Time.ms 20)
           ~now:Time.zero () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slice > period accepted")

let edf_replenish_rollover () =
  let t = Edf.create () in
  let c = admit_exn t ~name:"a" ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  Edf.charge c (Time.ms 14); (* 4 ms overrun *)
  check "negative remaining" (Time.ms (-4)) c.Edf.remaining;
  check "one grant" 1 (Edf.replenish t ~now:(Time.ms 100) c);
  check "carry deducted" (Time.ms 6) c.Edf.remaining;
  check "deadline advanced" (Time.ms 200) c.Edf.deadline

let edf_no_rollover () =
  let t = Edf.create ~rollover:false () in
  let c = admit_exn t ~name:"a" ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  Edf.charge c (Time.ms 14);
  ignore (Edf.replenish t ~now:(Time.ms 100) c);
  check "full slice regardless" (Time.ms 10) c.Edf.remaining

let edf_idle_does_not_stack () =
  let t = Edf.create () in
  let c = admit_exn t ~name:"a" ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  (* Five periods pass while idle. *)
  check "five boundaries" 5 (Edf.replenish t ~now:(Time.ms 520) c);
  check "still one slice" (Time.ms 10) c.Edf.remaining;
  check "deadline in the future" (Time.ms 600) c.Edf.deadline

let edf_select_earliest () =
  let t = Edf.create () in
  let _a = admit_exn t ~name:"a" ~period:(Time.ms 200) ~slice:(Time.ms 10) () in
  let b = admit_exn t ~name:"b" ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  (match Edf.select t ~now:Time.zero with
  | Some c -> Alcotest.(check string) "earliest deadline" "b" c.Edf.cname
  | None -> Alcotest.fail "nobody selected");
  Edf.charge b (Time.ms 10);
  (match Edf.select t ~now:Time.zero with
  | Some c -> Alcotest.(check string) "b exhausted, a next" "a" c.Edf.cname
  | None -> Alcotest.fail "nobody selected");
  (* Slack selection ignores budget but honours the x flag. *)
  checkb "no slack-eligible client" true
    (Edf.select_slack t ~now:Time.zero = None)

let edf_slack_flag () =
  let t = Edf.create () in
  let a =
    admit_exn t ~name:"a" ~period:(Time.ms 100) ~slice:(Time.ms 10)
      ~extra:true ()
  in
  Edf.charge a (Time.ms 10);
  checkb "exhausted" false (Edf.has_budget a);
  (match Edf.select_slack t ~now:Time.zero with
  | Some c -> Alcotest.(check string) "slack goes to x client" "a" c.Edf.cname
  | None -> Alcotest.fail "slack client not found")

(* --- Cpu --- *)

let cpu_admit_exn cpu ~name ~period ~slice ?extra () =
  match Cpu.admit cpu ~name ~period ~slice ?extra () with
  | Ok c -> c
  | Error e -> failwith e

let consume_exn cpu c span =
  match Cpu.consume cpu c span with
  | Ok () -> ()
  | Error `Removed -> failwith "consume_exn: client removed"

let cpu_consume_advances_time () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  let c = cpu_admit_exn cpu ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 5) () in
  let finished = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         consume_exn cpu c (Time.ms 2);
         finished := Sim.now sim));
  Sim.run ~until:(Time.ms 100) sim;
  check "2ms of cpu took 2ms uncontended" (Time.ms 2) !finished;
  check "accounted" (Time.ms 2) (Cpu.used c)

let cpu_guarantees_respected () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  (* Two always-hungry clients with a 3:1 split and no slack: their
     long-run shares must follow the contracts. *)
  let a = cpu_admit_exn cpu ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 6)
      ~extra:false () in
  let b = cpu_admit_exn cpu ~name:"b" ~period:(Time.ms 10) ~slice:(Time.ms 2)
      ~extra:false () in
  let hungry client () =
    let rec loop () =
      consume_exn cpu client (Time.us 500);
      loop ()
    in
    loop ()
  in
  ignore (Proc.spawn sim (hungry a));
  ignore (Proc.spawn sim (hungry b));
  Sim.run ~until:(Time.sec 1) sim;
  let ua = Time.to_ms (Cpu.used a) and ub = Time.to_ms (Cpu.used b) in
  let ratio = ua /. ub in
  checkb "ratio close to 3"
    true
    (ratio > 2.6 && ratio < 3.4);
  checkb "a got close to its 60%" true (ua > 550.0 && ua < 650.0)

let cpu_slack_when_idle () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  let a = cpu_admit_exn cpu ~name:"a" ~period:(Time.ms 10) ~slice:(Time.ms 1)
      ~extra:true () in
  let done_at = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         (* 50 ms of work on a 10% guarantee: slack (nobody else wants
            the CPU) should let it finish in well under 500 ms. *)
         consume_exn cpu a (Time.ms 50);
         done_at := Sim.now sim));
  Sim.run ~until:(Time.sec 2) sim;
  checkb "finished early thanks to slack" true (!done_at < Time.ms 100);
  checkb "finished at all" true (!done_at > Time.zero)

(* --- The shared loop: when it wakes --- *)

let alloc_times trace is_alloc =
  List.filter_map
    (fun (at, ev) -> if is_alloc ev then Some at else None)
    (Trace.to_list trace)

(* Where empty clients stay runnable (the USD), the loop wakes at every
   period boundary, so an idle stream with l = 0 gets its [Alloc]
   record at each boundary. Where they leave the runnable queue (the
   link), an idle client's boundaries pass unseen until work wakes the
   loop, which then records one [Alloc] for all of them. *)
let loop_wake_rule () =
  let sim = Sim.create () in
  let usd = Usbs.Usd.create sim (Disk.Disk_model.create ()) in
  (match
     Usbs.Usd.admit usd ~name:"idle"
       ~qos:
         (Usbs.Qos.make ~period:(Time.ms 50) ~slice:(Time.ms 10) ~laxity:0 ())
       ()
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let link = Usnet.Link.create sim in
  let c =
    match
      Usnet.Link.admit link ~name:"idle" ~period:(Time.ms 10)
        ~slice:(Time.ms 2) ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  Sim.run ~until:(Time.ms 475) sim;
  let usd_allocs () =
    alloc_times (Usbs.Usd.trace usd) (function
      | Usbs.Usd.Alloc _ -> true
      | _ -> false)
  in
  let link_allocs () =
    alloc_times (Usnet.Link.trace link) (function
      | Usnet.Link.Alloc _ -> true
      | _ -> false)
  in
  Alcotest.(check (list int)) "USD: one Alloc per boundary"
    (List.init 9 (fun i -> Time.ms (50 * (i + 1))))
    (usd_allocs ());
  Alcotest.(check (list int)) "link: no Alloc while idle" [] (link_allocs ());
  ignore
    (Proc.spawn sim (fun () ->
         match Usnet.Link.transmit link c ~bytes:512 with
         | Ok () -> ()
         | Error `Retired -> Alcotest.fail "retired"));
  Sim.run ~until:(Time.ms 480) sim;
  Alcotest.(check (list int)) "link: one Alloc when woken" [ Time.ms 475 ]
    (link_allocs ());
  check "the packet went out" 1 (Usnet.Link.packets_sent c)

let suite =
  [ ( "sched.edf",
      [ Alcotest.test_case "admission control" `Quick edf_admission;
        Alcotest.test_case "roll-over accounting" `Quick edf_replenish_rollover;
        Alcotest.test_case "no-rollover ablation" `Quick edf_no_rollover;
        Alcotest.test_case "idle periods do not stack" `Quick
          edf_idle_does_not_stack;
        Alcotest.test_case "EDF selection" `Quick edf_select_earliest;
        Alcotest.test_case "slack selection" `Quick edf_slack_flag ] );
    ( "sched.cpu",
      [ Alcotest.test_case "consume advances simulated time" `Quick
          cpu_consume_advances_time;
        Alcotest.test_case "contended shares follow contracts" `Quick
          cpu_guarantees_respected;
        Alcotest.test_case "slack time when idle" `Quick
          cpu_slack_when_idle ] );
    ( "sched.atropos",
      [ Alcotest.test_case "wake rule: USD every boundary, link on work"
          `Quick loop_wake_rule ] ) ]
