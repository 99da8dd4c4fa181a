(* Tests for lib/inject and the recovery paths it exercises: the
   seeded fault-injection layer itself, the SFS retry/remap ladder,
   the paged driver's typed degradations (re-blok, swap exhaustion),
   USD retirement as a typed error, the revocation kill path under an
   injected stall (verified against the RamTab), and the seeded
   determinism of the whole chaos experiment. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let page_blocks = Addr.page_size / 512

(* Every test arms its own plan; make sure none leaks into the next. *)
let with_plan plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let plain_qos () = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) ()

let mk_sfs () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usbs.Usd.create sim dm in
  (sim, u, Usbs.Sfs.create ~first_block:0 ~nblocks:1_000_000 u)

let open_swap_exn fs ~name ~bytes ?spare_pages () =
  match
    Usbs.Sfs.open_swap fs ~name ~bytes ~qos:(plain_qos ()) ?spare_pages ()
  with
  | Ok s -> s
  | Error e -> failwith (Usbs.Sfs.open_error_message e)

let in_proc sim f =
  let done_ = ref false in
  ignore
    (Proc.spawn sim (fun () ->
         f ();
         done_ := true));
  Sim.run ~until:(Time.sec 60) sim;
  checkb "proc finished" true !done_

(* --- The injection layer itself ------------------------------------ *)

let disarmed_hooks_inert () =
  Inject.disarm ();
  (match Inject.disk ~op:Inject.Write ~lba:0 ~nblocks:16 with
  | Inject.Pass -> ()
  | _ -> Alcotest.fail "disarmed disk hook injected");
  checkb "no stall" true (Inject.stall ~site:"x" = None);
  (match Inject.chan ~name:"x" with
  | Inject.Deliver -> ()
  | _ -> Alcotest.fail "disarmed chan hook injected");
  checkb "no pressure" true (Inject.pressure () = None)

let seeded_injection_deterministic () =
  let plan =
    { Inject.default_plan with
      seed = 99;
      regions =
        [ { Inject.rf_first = 0;
            rf_len = 10_000;
            rf_read_error = 0.2;
            rf_write_error = 0.2;
            rf_spike = 0.2;
            rf_spike_span = Time.ms 5 } ] }
  in
  let sample () =
    List.init 200 (fun i ->
        match
          Inject.disk
            ~op:(if i mod 2 = 0 then Inject.Read else Inject.Write)
            ~lba:(i * 16 mod 10_000) ~nblocks:16
        with
        | Inject.Pass -> 0
        | Inject.Spike s -> 1000 + s
        | Inject.Media_error { bad_lba; persistent } ->
          2000 + bad_lba + if persistent then 1 else 0)
  in
  Inject.arm plan;
  let a = sample () in
  Inject.reset ();
  let b = sample () in
  Inject.disarm ();
  checkb "same seed, same injections" true (a = b);
  checkb "something was injected" true (List.exists (fun x -> x > 0) a)

let disk_errors_carry_mechanical_time () =
  let dm = Disk.Disk_model.create () in
  let plan =
    { Inject.default_plan with
      blok_faults =
        [ { Inject.bf_first = 0;
            bf_len = page_blocks;
            bf_op = None;
            bf_transient = None } ] }
  in
  with_plan plan (fun () ->
      (match
         Disk.Disk_model.service_result dm ~now:(Time.ms 0)
           ~op:Disk.Disk_model.Write ~lba:0 ~nblocks:page_blocks
       with
      | Ok _ -> Alcotest.fail "bad blok served"
      | Error (elapsed, e) ->
        checkb "mechanical time burned" true (elapsed > 0);
        checkb "persistent" true e.Disk.Disk_model.persistent;
        checkb "bad lba in range" true
          (e.Disk.Disk_model.bad_lba >= 0
          && e.Disk.Disk_model.bad_lba < page_blocks));
      match
        Disk.Disk_model.service dm ~now:(Time.ms 0)
          ~op:Disk.Disk_model.Write ~lba:0 ~nblocks:page_blocks
      with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exn wrapper did not raise");
  (* Disarmed, the same range serves. *)
  match
    Disk.Disk_model.service_result dm ~now:(Time.ms 0)
      ~op:Disk.Disk_model.Write ~lba:0 ~nblocks:page_blocks
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "disarmed disk injected"

let chan_drop_and_delay () =
  let sim = Sim.create () in
  let ch = Event_chan.create ~name:"t.chan" () in
  let hits = ref 0 in
  Event_chan.attach ch (fun () -> incr hits);
  let chan_plan cf =
    { Inject.default_plan with seed = 5; chans = [ ("t.chan", cf) ] }
  in
  with_plan
    (chan_plan
       { Inject.cf_drop = 1.0; cf_delay = 0.0; cf_delay_span = Time.ms 5 })
    (fun () ->
      Event_chan.send ch;
      check "notification dropped" 0 !hits;
      check "drop tallied" 1 (Inject.tally ()).Inject.chan_drops);
  with_plan
    (chan_plan
       { Inject.cf_drop = 0.0; cf_delay = 1.0; cf_delay_span = Time.ms 5 })
    (fun () ->
      ignore (Proc.spawn sim (fun () -> Event_chan.send ch));
      Sim.run ~until:(Time.ms 2) sim;
      check "not yet delivered" 0 !hits;
      Sim.run ~until:(Time.ms 20) sim;
      check "delivered late" 1 !hits;
      check "delay tallied" 1 (Inject.tally ()).Inject.chan_delays)

(* --- SFS recovery ladder ------------------------------------------- *)

let sfs_transient_errors_retried () =
  let sim, _, fs = mk_sfs () in
  let sf = open_swap_exn fs ~name:"a" ~bytes:(8 * Addr.page_size) () in
  let plan =
    { Inject.default_plan with
      seed = 7;
      blok_faults =
        [ { Inject.bf_first = Usbs.Sfs.extent_start sf;
            bf_len = page_blocks;
            bf_op = Some Inject.Write;
            bf_transient = Some 2 } ] }
  in
  with_plan plan (fun () ->
      in_proc sim (fun () ->
          match Usbs.Sfs.write_page sf ~page_index:0 with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "marginal blok not recovered");
      check "two retries" 2 (Usbs.Sfs.retry_count sf);
      let t = Inject.tally () in
      check "two errors injected" 2 t.Inject.injected_errors;
      check "both answered by retries" 2 t.Inject.retried;
      checkb "books balance" true (Inject.accounted ()))

let sfs_persistent_write_remapped_to_spare () =
  let sim, _, fs = mk_sfs () in
  let sf =
    open_swap_exn fs ~name:"a" ~bytes:(8 * Addr.page_size) ~spare_pages:1 ()
  in
  let plan =
    { Inject.default_plan with
      seed = 7;
      blok_faults =
        [ { Inject.bf_first = Usbs.Sfs.extent_start sf;
            bf_len = page_blocks;
            bf_op = Some Inject.Write;
            bf_transient = None } ] }
  in
  with_plan plan (fun () ->
      in_proc sim (fun () ->
          (match Usbs.Sfs.write_page sf ~page_index:0 with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "bad blok not remapped");
          (* Later accesses follow the remap: no further errors. *)
          (match Usbs.Sfs.write_page sf ~page_index:0 with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "remap not consulted");
          match Usbs.Sfs.read_page sf ~page_index:0 with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "read of remapped page failed");
      check "one spare consumed" 1 (Usbs.Sfs.remap_count sf);
      let t = Inject.tally () in
      check "one error injected" 1 t.Inject.injected_errors;
      check "answered by the remap" 1 t.Inject.remapped;
      checkb "books balance" true (Inject.accounted ()))

let sfs_write_loss_is_callers_debt () =
  let sim, _, fs = mk_sfs () in
  let sf = open_swap_exn fs ~name:"a" ~bytes:(8 * Addr.page_size) () in
  let plan =
    { Inject.default_plan with
      seed = 7;
      blok_faults =
        [ { Inject.bf_first = Usbs.Sfs.extent_start sf;
            bf_len = page_blocks;
            bf_op = Some Inject.Write;
            bf_transient = None } ] }
  in
  with_plan plan (fun () ->
      in_proc sim (fun () ->
          match Usbs.Sfs.write_page sf ~page_index:0 with
          | Error (`Lost_pages [ 0 ]) -> ()
          | Ok () -> Alcotest.fail "lost write reported success"
          | Error _ -> Alcotest.fail "unexpected error shape");
      check "loss recorded" 1 (Usbs.Sfs.lost_count sf);
      (* The final error is deliberately left on the caller's account:
         the books stay open until the caller answers it. *)
      checkb "unaccounted until the caller answers" false
        (Inject.accounted ());
      Inject.note_killed (Inject.recovery "test");
      checkb "books balance once answered" true (Inject.accounted ()))

(* --- USD typed errors ---------------------------------------------- *)

let usd_retired_is_typed () =
  let sim = Sim.create () in
  let dm = Disk.Disk_model.create () in
  let u = Usbs.Usd.create sim dm in
  let c =
    match Usbs.Usd.admit u ~name:"a" ~qos:(plain_qos ()) () with
    | Ok c -> c
    | Error e -> failwith e
  in
  Usbs.Usd.retire u c;
  (match Usbs.Usd.submit u c Usbs.Usd.Read ~lba:0 ~nblocks:16 with
  | Error `Retired -> ()
  | Ok _ -> Alcotest.fail "submit to retired client accepted");
  match Usbs.Usd.transact u c Usbs.Usd.Read ~lba:0 ~nblocks:16 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "transact on retired client succeeded"
  | Error _ -> Alcotest.fail "wrong error for retired client"

(* --- Paged-driver degradations ------------------------------------- *)

let small_sys () =
  let config = { System.default_config with main_memory_mb = 2 } in
  System.create ~config ()

let add_domain_exn sys ~name ~guarantee ~optimistic =
  match System.add_domain sys ~name ~guarantee ~optimistic () with
  | Ok d -> d
  | Error e -> failwith (System.error_message e)

let alloc_exn d ~bytes =
  match System.alloc_stretch d ~bytes () with
  | Ok s -> s
  | Error e -> failwith e

let in_domain sys d f =
  let result = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"test" (fun () ->
         result := Some (f ())));
  let sim = System.sim sys in
  System.run sys ~until:(Time.add (Sim.now sim) (Time.sec 300));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "domain thread did not finish"

let bind_paged_exn d ~swap_pages s =
  match
    System.bind_paged d ~initial_frames:2
      ~swap_bytes:(swap_pages * Addr.page_size) ~qos:(plain_qos ()) s ()
  with
  | Ok (_, h) -> h
  | Error e -> failwith (System.error_message e)

(* All eight bad bloks sit at the head of the extent: the driver must
   abandon each (re-blok) and walk on to healthy ones; no data is lost
   and nothing fails. *)
let paged_rebloks_around_bad_bloks () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:2 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(8 * Addr.page_size) in
  let info =
    in_domain sys d (fun () ->
        let h = bind_paged_exn d ~swap_pages:24 s in
        let first, _ = Sd_paged.swap_extent h in
        Inject.arm
          { Inject.default_plan with
            seed = 3;
            blok_faults =
              [ { Inject.bf_first = first;
                  bf_len = 8 * page_blocks;
                  bf_op = Some Inject.Write;
                  bf_transient = None } ] };
        for pass = 1 to 2 do
          ignore pass;
          for i = 0 to 7 do
            Domains.access d.System.dom (Stretch.page_base s i) `Write
          done
        done;
        Sd_paged.info h)
  in
  Inject.disarm ();
  check "eight bad bloks abandoned" 8 info.Sd_paged.rebloks;
  check "no page lost" 0 info.Sd_paged.lost_pages;
  checkb "swap not exhausted" false info.Sd_paged.swap_exhausted;
  checkb "books balance" true (Inject.accounted ())

(* Every blok of a minimal swap is bad: the bitmap runs dry, the
   driver latches the typed degradation (instead of the seed's
   [failwith "swap space exhausted"]), loses the page it could not
   clean, and later faults fail as domain faults without taking the
   simulator down. *)
let paged_swap_exhaustion_degrades () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:2 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(8 * Addr.page_size) in
  let oks, errs, info =
    in_domain sys d (fun () ->
        let h = bind_paged_exn d ~swap_pages:8 s in
        let first, nblocks = Sd_paged.swap_extent h in
        Inject.arm
          { Inject.default_plan with
            seed = 3;
            blok_faults =
              [ { Inject.bf_first = first;
                  bf_len = nblocks;
                  bf_op = Some Inject.Write;
                  bf_transient = None } ] };
        let oks = ref 0 and errs = ref 0 in
        for i = 0 to 7 do
          match
            Domains.try_access d.System.dom (Stretch.page_base s i) `Write
          with
          | Ok () -> incr oks
          | Error _ -> incr errs
        done;
        (!oks, !errs, Sd_paged.info h))
  in
  Inject.disarm ();
  checkb "some accesses still served" true (oks > 0);
  checkb "some accesses failed as domain faults" true (errs > 0);
  checkb "exhaustion latched" true info.Sd_paged.swap_exhausted;
  checkb "pages lost" true (info.Sd_paged.lost_pages > 0);
  checkb "books balance" true (Inject.accounted ())

(* --- Revocation kill path under an injected stall ------------------ *)

(* A domain hogging 32 mapped optimistic frames whose revocation
   handler is stalled past the 100 ms deadline by the plan: the
   allocator must kill it and reclaim every frame (checked against the
   RamTab), and the squeezed guaranteed allocation must then succeed. *)
let revocation_deadline_miss_kills () =
  Obs.set_enabled true;
  Obs.reset ();
  let sys = small_sys () in
  let sim = System.sim sys in
  let hog = add_domain_exn sys ~name:"hog" ~guarantee:2 ~optimistic:30 in
  let s = alloc_exn hog ~bytes:(32 * Addr.page_size) in
  (match System.bind_physical hog s with
  | Ok _ -> ()
  | Error e -> failwith (System.error_message e));
  ignore
    (Domains.spawn_thread hog.System.dom ~name:"hog" (fun () ->
         for i = 0 to 31 do
           Domains.access hog.System.dom (Stretch.page_base s i) `Write
         done;
         Proc.sleep (Time.sec 3600)));
  Frames.set_revocation_handler hog.System.frames_client
    (fun ~k:_ ~deadline:_ ->
      ignore
        (Proc.spawn ~name:"hog.revoke" sim (fun () ->
             (match Inject.stall ~site:"hog.revoke" with
             | Some span -> Proc.sleep span
             | None -> ());
             Frames.revocation_ready (System.frames sys)
               hog.System.frames_client)));
  let press =
    match
      Frames.admit (System.frames sys) ~domain:999 ~guarantee:230
        ~optimistic:0
    with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let got = ref 0 in
  Inject.arm
    { Inject.default_plan with
      seed = 3;
      stalls =
        [ ("hog.revoke", { Inject.st_rate = 1.0; st_span = Time.ms 250 }) ] };
  ignore
    (Proc.spawn ~name:"press" sim (fun () ->
         Proc.sleep (Time.ms 100);
         let continue_ = ref true in
         while !continue_ do
           match Frames.alloc (System.frames sys) press with
           | Some _ -> incr got
           | None -> continue_ := false
         done));
  System.run sys ~until:(Time.sec 2);
  Inject.disarm ();
  checkb "stall injected" true ((Inject.tally ()).Inject.stalls_injected >= 1);
  checkb "hog domain killed" false (Domains.alive hog.System.dom);
  checkb "hog frames contract gone" false
    (Frames.is_live hog.System.frames_client);
  let rt = System.ramtab sys in
  let hog_id = Domains.id hog.System.dom in
  let still_owned = ref 0 in
  for pfn = 0 to Ramtab.nframes rt - 1 do
    if Ramtab.owner rt ~pfn = Some hog_id then incr still_owned
  done;
  check "no RamTab frame still owned by the victim" 0 !still_owned;
  check "squeezed guarantee fully satisfied" 230 !got;
  checkb "overdue revocation audited" true
    (List.mem_assoc "revocation.overdue" (Obs.Qos_audit.by_class ()));
  Obs.set_enabled false

(* --- Chaos determinism (same seed, same run) ----------------------- *)

let chaos_deterministic () =
  let go () =
    let r = Experiments.Chaos.run ~seed:11 ~duration:(Time.sec 5) () in
    let metrics = Json.to_string (Obs.Metrics.to_json ()) in
    Obs.set_enabled false;
    (Json.to_string (Experiments.Chaos.to_json r), metrics, r)
  in
  let j1, m1, r1 = go () in
  let j2, m2, _ = go () in
  checks "identical chaos verdicts" j1 j2;
  checks "identical metric registries" m1 m2;
  checkb "books balance" true r1.Experiments.Chaos.accounted;
  checkb "doomed domain killed" true r1.Experiments.Chaos.doomed_killed;
  checkb "doomed frames reclaimed" true
    r1.Experiments.Chaos.doomed_frames_reclaimed

(* --- Allocation per injected event --------------------------------- *)

(* Words allocated by one call of [f], measured over [n] calls after
   [warm] warm-up calls. *)
let words_per ~warm ~n f =
  for _ = 1 to warm do f () done;
  let before = Gc.minor_words () in
  for _ = 1 to n do f () done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words name ~bound per =
  if per > bound +. 0.01 then
    Alcotest.failf "%s: %.2f words per event (bound %.0f)" name per bound

(* Every hook below injects on every call (probability 1, a standing
   bad blok, an open partition window). Class names and one-shot state
   are built when the plan is armed, so what is left per event is the
   plan lookup's option (2 words), the RNG draw where dice are rolled
   (its boxed state, draw and float, 8), and the outcome handed back
   (a media error 3, a stall's span 2). *)
let injected_event_words () =
  let plan =
    { Inject.default_plan with
      blok_faults =
        [ { Inject.bf_first = 0; bf_len = page_blocks; bf_op = None;
            bf_transient = None } ];
      stalls = [ ("s", { Inject.st_rate = 1.0; st_span = Time.ms 1 }) ];
      chans =
        [ ("c", { Inject.cf_drop = 1.0; cf_delay = 0.0; cf_delay_span = 0 }) ];
      links =
        [ ("l", { Inject.lf_drop = 1.0; lf_delay = 0.0; lf_delay_span = 0 }) ];
      node_faults =
        [ Inject.node_fault ~partitions:[ (Time.zero, Time.sec 1) ] "n" ] }
  in
  let measure name ~bound f =
    check_words name ~bound (words_per ~warm:1_000 ~n:100_000 f)
  in
  with_plan plan (fun () ->
      measure "chan drop" ~bound:10. (fun () -> ignore (Inject.chan ~name:"c"));
      measure "link drop" ~bound:10. (fun () -> ignore (Inject.link ~name:"l"));
      measure "stall" ~bound:12. (fun () -> ignore (Inject.stall ~site:"s"));
      measure "disk media error" ~bound:3. (fun () ->
          ignore (Inject.disk ~op:Inject.Write ~lba:0 ~nblocks:page_blocks));
      measure "packet to a partitioned node" ~bound:2. (fun () ->
          ignore (Inject.node_reachable ~name:"n" ~now:(Time.ms 5))));
  let t = Inject.tally () in
  check "every chan call dropped" 101_000 t.Inject.chan_drops;
  check "every disk call failed" 101_000 t.Inject.injected_errors;
  check "one partition window entered" 1 t.Inject.node_partitions

let suite =
  [ ( "inject.layer",
      [ Alcotest.test_case "disarmed hooks are inert" `Quick
          disarmed_hooks_inert;
        Alcotest.test_case "seeded injection deterministic" `Quick
          seeded_injection_deterministic;
        Alcotest.test_case "disk errors carry mechanical time" `Quick
          disk_errors_carry_mechanical_time;
        Alcotest.test_case "event-channel drop and delay" `Quick
          chan_drop_and_delay;
        Alcotest.test_case "injected events allocate" `Quick
          injected_event_words ] );
    ( "inject.sfs",
      [ Alcotest.test_case "transient errors retried" `Quick
          sfs_transient_errors_retried;
        Alcotest.test_case "persistent write remapped to spare" `Quick
          sfs_persistent_write_remapped_to_spare;
        Alcotest.test_case "write loss is the caller's debt" `Quick
          sfs_write_loss_is_callers_debt ] );
    ( "inject.usd",
      [ Alcotest.test_case "retired client is a typed error" `Quick
          usd_retired_is_typed ] );
    ( "inject.paged",
      [ Alcotest.test_case "re-bloks around bad bloks" `Quick
          paged_rebloks_around_bad_bloks;
        Alcotest.test_case "swap exhaustion degrades" `Quick
          paged_swap_exhaustion_degrades ] );
    ( "inject.revocation",
      [ Alcotest.test_case "deadline miss kills, RamTab reclaimed" `Quick
          revocation_deadline_miss_kills ] );
    ( "inject.chaos",
      [ Alcotest.test_case "same seed, same run" `Slow chaos_deterministic ] )
  ]
