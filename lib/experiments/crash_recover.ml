open Engine
open Hw
open Core

type round_report = {
  rr_index : int;
  rr_target : string;  (* "data" or "journal" *)
  rr_crashes : int;
  rr_replayed : int;
  rr_torn : int;
  rr_conflicts : int;
  rr_idempotent : bool;
  rr_committed : int;
  rr_verified : int;
  rr_lost : int;
  rr_restored : int;
  rr_revived : bool;
}

type result = {
  seed : int;
  rounds : round_report list;
  total_replayed : int;
  total_torn : int;
  total_restored : int;
  total_lost : int;
  clean_violations : int;
  audit : Obs.Qos_audit.summary;
}

(* Enough journal for every Commit record the victim and the two
   bystanders append across all rounds, with plenty of headroom — a
   full journal would silently degrade to the unjournaled behaviour
   and the experiment would be measuring nothing. *)
let journal_blocks = 8192

let victim_pages = 48
let victim_name = "victim"

let qos () = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) ()

let start_clean sys ~name =
  match
    Workload.Paging_app.start sys ~name ~mode:Workload.Paging_app.Paging_in
      ~qos:(qos ()) ~vm_bytes:(1024 * 1024) ~phys_frames:8 ~optimistic:0
      ~swap_bytes:(4 * 1024 * 1024) ()
  with
  | Ok a -> a
  | Error e ->
    Harness.fail_verdict ~experiment:"crash-recover"
      ~context:[ ("stage", "start_clean"); ("domain", name) ]
      (Printf.sprintf "crash-recover: %s: %s" name e)

(* Start (or restart) the victim: a continuous writer over a small
   stretch, restartable so its swapfile survives its death detached.
   The restart path reattaches the swapfile and restores the
   journal-committed page image; the thread then reads every page
   (faulting the restored ones back in from swap) before resuming the
   dirtying sweep — if a restored page's contents are gone, that read
   is a domain fault and the incarnation dies, which the round report
   records as not revived. *)
let start_victim sys ~restart spec_opt =
  let d =
    match spec_opt with
    | None ->
      System.add_domain sys ~name:victim_name ~cpu_period:(Time.ms 10)
        ~cpu_slice:(Time.of_ms_float 1.5) ~guarantee:8 ~optimistic:0 ()
    | Some sp -> System.respawn sys sp
  in
  let d =
    match d with
    | Ok d -> d
    | Error e ->
      Harness.fail_verdict ~experiment:"crash-recover"
        ~context:[ ("stage", "victim admission") ]
        ("crash-recover: victim: " ^ System.error_message e)
  in
  let s =
    match
      System.alloc_stretch d ~bytes:(victim_pages * Addr.page_size) ()
    with
    | Ok s -> s
    | Error e ->
      Harness.fail_verdict ~experiment:"crash-recover"
        ~context:[ ("stage", "victim stretch") ]
        ("crash-recover: victim: " ^ e)
  in
  let started = Sync.Ivar.create () in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let bound =
           if restart then
             System.bind_paged_restored d ~initial_frames:8 ~qos:(qos ()) s ()
           else
             System.bind_paged d ~initial_frames:8 ~restartable:true
               ~swap_bytes:(2 * 1024 * 1024) ~qos:(qos ()) s ()
         in
         match bound with
         | Error e ->
           Sync.Ivar.fill started (Error (System.error_message e))
         | Ok (_driver, handle) ->
           Sync.Ivar.fill started (Ok handle);
           let touch p access =
             Domains.access d.System.dom (Stretch.page_base s p) access;
             Domains.consume_cpu d.System.dom (Time.us 20)
           in
           (* Fault everything in (restored pages come from swap)... *)
           for p = 0 to victim_pages - 1 do
             touch p `Read
           done;
           (* ...then dirty it over and over. *)
           let rec loop () =
             for p = 0 to victim_pages - 1 do
               touch p `Write
             done;
             loop ()
           in
           loop ()));
  let sim = System.sim sys in
  let fuel = ref 1_000_000 in
  while Sync.Ivar.peek started = None && !fuel > 0 do
    if Sim.step sim then decr fuel else fuel := 0
  done;
  match Sync.Ivar.peek started with
  | Some (Ok handle) -> (d, handle)
  | Some (Error e) ->
    Harness.fail_verdict ~experiment:"crash-recover"
      ~context:[ ("stage", "victim bind") ]
      ("crash-recover: victim: " ^ e)
  | None ->
    Harness.fail_verdict ~experiment:"crash-recover"
      ~context:[ ("stage", "victim bind") ]
      "crash-recover: victim setup did not complete"

(* One seeded, one-shot crash point scoped to the victim's swap: any
   durable write the victim issues inside the window after [after] is
   torn at a seeded prefix. Site scoping keeps the bystanders' own
   journal appends (same shared journal region) out of the blast
   radius — the crash models the *victim pager* dying mid-write. *)
let crash_plan ~seed ~after ~first ~len =
  { Inject.seed;
    blok_faults = [];
    regions = [];
    crashes =
      [ { Inject.cp_after = after;
          cp_site = Some (victim_name ^ ".swap");
          cp_first = first;
          cp_len = len } ];
    stalls = [];
    chans = [];
    links = [];
    pressure = None;
    zpool_pressure = None;
    node_faults = [] }

let run_for sys span =
  let sim = System.sim sys in
  System.run ~until:(Time.add (Sim.now sim) span) sys

(* Run until the victim incarnation is dead (the crash fired and its
   next fault was fatal); bounded so a plan that never fires cannot
   hang the experiment. *)
let run_until_dead sys dom ~bound =
  let sim = System.sim sys in
  let deadline = Time.add (Sim.now sim) bound in
  let rec go () =
    if not (Domains.alive dom) then true
    else if Sim.now sim >= deadline then false
    else begin
      run_for sys (Time.ms 50);
      go ()
    end
  in
  go ()

(* Remount must run on a simulation process: the journal scan is a
   timed read under the journal client's own guarantee. *)
let remount_now sys =
  let sfs = System.sfs sys in
  let out = ref None in
  let sim = System.sim sys in
  ignore
    (Proc.spawn ~name:"remount" sim (fun () ->
         out := Some (Usbs.Sfs.remount sfs)));
  let fuel = ref 1_000_000 in
  while !out = None && !fuel > 0 do
    if Sim.step sim then decr fuel else fuel := 0
  done;
  match !out with
  | Some (Ok st) -> st
  | Some (Error e) ->
    Harness.fail_verdict ~experiment:"crash-recover"
      ~context:[ ("stage", "remount") ]
      ("crash-recover: remount: " ^ e)
  | None ->
    Harness.fail_verdict ~experiment:"crash-recover"
      ~context:[ ("stage", "remount") ]
      "crash-recover: remount did not complete"

(* The idempotence check compares the journal-recovered state: the free
   map and every detached swap's rebuilt tables. Live attached swaps
   (the bystanders) keep committing between the two remounts, so their
   sections of the snapshot legitimately drift. *)
let recovered_part snap =
  let keep = ref false in
  String.split_on_char '\n' snap
  |> List.filter (fun line ->
         if String.length line >= 5 && String.sub line 0 5 = "free=" then begin
           keep := true;
           true
         end
         else if String.length line >= 5 && String.sub line 0 5 = "swap " then begin
           (* A swap block header: keep the block iff it is detached. *)
           let n = String.length line in
           keep := n >= 9 && String.sub line (n - 9) 9 = " detached";
           !keep
         end
         else !keep)
  |> String.concat "\n"

let run ?(seed = 42) ?(rounds = 4) () =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  let config =
    { System.default_config with
      seed;
      main_memory_mb = 2;
      sfs_journal_blocks = journal_blocks }
  in
  let sys = System.create ~config () in
  let sim = System.sim sys in
  let sfs = System.sfs sys in
  let clean1 = start_clean sys ~name:"clean1" in
  let clean2 = start_clean sys ~name:"clean2" in
  let victim = ref (start_victim sys ~restart:false None) in
  let vspec = System.spec (fst !victim) in
  (* Let everyone settle into steady state before the first crash. *)
  run_for sys (Time.sec 2);
  let reports = ref [] in
  for r = 1 to rounds do
    let _, handle = !victim in
    (* Alternate the tear between the victim's data extent and the
       shared journal region: a torn page write and a torn intent
       record exercise different halves of the recovery path. *)
    let target, (first, len) =
      if r mod 2 = 1 then ("data", Sd_paged.swap_extent handle)
      else ("journal", (0, journal_blocks))
    in
    let after = Time.add (Sim.now sim) (Time.ms (40 + (13 * r))) in
    Inject.arm (crash_plan ~seed:(seed + r) ~after ~first ~len);
    let died = run_until_dead sys (fst !victim).System.dom ~bound:(Time.sec 20) in
    let crashes = (Inject.tally ()).Inject.crashes in
    Inject.disarm ();
    if not died then
      Harness.fail_verdict ~experiment:"crash-recover"
        ~context:[ ("round", string_of_int r); ("target", target) ]
        "crash-recover: victim did not crash";
    (* Injection-free drain so the bystanders' in-flight work settles. *)
    run_for sys (Time.ms 500);
    (* Remount: replay the intent journal, rebuild the control state,
       quarantine the torn tail. Twice — recovery must be idempotent. *)
    let st1 = remount_now sys in
    let snap1 = recovered_part (Usbs.Sfs.snapshot sfs) in
    let _st2 = remount_now sys in
    let snap2 = recovered_part (Usbs.Sfs.snapshot sfs) in
    (* Every journal-committed page slot must still carry its durable
       stamp: commits were appended only after the data landed, and
       committed slots are never overwritten in place. *)
    let committed, verified =
      match Usbs.Sfs.find_swap sfs (victim_name ^ ".swap") with
      | None -> (0, 0)
      | Some sf ->
        let pairs = Usbs.Sfs.committed_pairs sf in
        ( List.length pairs,
          List.length
            (List.filter (fun (_, slot) -> Usbs.Sfs.slot_ok sf ~slot) pairs)
        )
    in
    (* Restart: respawn under the original contract, reattach the
       swapfile by name, restore the committed image, fault it back. *)
    victim := start_victim sys ~restart:true (Some vspec);
    run_for sys (Time.sec 2);
    let restored = (Sd_paged.info (snd !victim)).Sd_paged.restored_pages in
    let revived = Domains.alive (fst !victim).System.dom in
    reports :=
      { rr_index = r;
        rr_target = target;
        rr_crashes = crashes;
        rr_replayed = st1.Usbs.Sfs.rm_replayed;
        rr_torn = st1.Usbs.Sfs.rm_torn;
        rr_conflicts = st1.Usbs.Sfs.rm_conflicts;
        rr_idempotent = snap1 = snap2;
        rr_committed = committed;
        rr_verified = verified;
        rr_lost = committed - verified;
        rr_restored = restored;
        rr_revived = revived }
      :: !reports
  done;
  (* Final drain, then the control group's verdict. *)
  run_for sys (Time.sec 1);
  let viol app name =
    Harness.violations_for ~names:[ name ]
      ~ids:[ Domains.id (Workload.Paging_app.domain app).System.dom ]
  in
  let rounds_r = List.rev !reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds_r in
  { seed;
    rounds = rounds_r;
    total_replayed = sum (fun r -> r.rr_replayed);
    total_torn = sum (fun r -> r.rr_torn);
    total_restored = sum (fun r -> r.rr_restored);
    total_lost = sum (fun r -> r.rr_lost);
    clean_violations = viol clean1 "clean1" + viol clean2 "clean2";
    audit = Obs.Qos_audit.summarize () }

let ok r =
  r.rounds <> []
  && List.for_all
       (fun rr ->
         rr.rr_crashes = 1 && rr.rr_idempotent && rr.rr_lost = 0
         && rr.rr_revived
         && rr.rr_conflicts = 0)
       r.rounds
  && r.total_lost = 0 && r.clean_violations = 0

let print r =
  Report.heading "Crash recovery: intent journal, torn writes, restart";
  Printf.printf "seed %d, %d crash/remount/restart rounds\n\n" r.seed
    (List.length r.rounds);
  Report.table
    ~header:
      [ "round"; "target"; "crashes"; "replayed"; "torn"; "idempotent";
        "committed"; "verified"; "lost"; "restored"; "revived" ]
    (List.map
       (fun rr ->
         [ string_of_int rr.rr_index; rr.rr_target;
           string_of_int rr.rr_crashes; string_of_int rr.rr_replayed;
           string_of_int rr.rr_torn; string_of_bool rr.rr_idempotent;
           string_of_int rr.rr_committed; string_of_int rr.rr_verified;
           string_of_int rr.rr_lost; string_of_int rr.rr_restored;
           string_of_bool rr.rr_revived ])
       r.rounds);
  print_newline ();
  Printf.printf
    "totals: %d records replayed, %d torn records quarantined, %d pages \
     restored, %d committed pages lost\n"
    r.total_replayed r.total_torn r.total_restored r.total_lost;
  Report.audit_section "Crash-recovery QoS audit" (Some r.audit);
  Printf.printf "clean-domain violations: %d\n" r.clean_violations;
  print_endline
    (if ok r then
       "VERDICT: ok — no journal-committed page lost, recovery \
        idempotent, bystanders unperturbed"
     else "VERDICT: FAILED")

let to_json r =
  let round rr =
    Json.obj
      [ ("round", Json.int rr.rr_index); ("target", Json.string rr.rr_target);
        ("crashes", Json.int rr.rr_crashes);
        ("replayed", Json.int rr.rr_replayed); ("torn", Json.int rr.rr_torn);
        ("idempotent", Json.bool rr.rr_idempotent);
        ("committed", Json.int rr.rr_committed);
        ("verified", Json.int rr.rr_verified); ("lost", Json.int rr.rr_lost);
        ("restored", Json.int rr.rr_restored);
        ("revived", Json.bool rr.rr_revived) ]
  in
  Json.obj
    [ ("seed", Json.int r.seed);
      ("rounds", Json.list (List.map round r.rounds));
      ( "recovered",
        Json.ints
          [ ("replayed", r.total_replayed); ("torn", r.total_torn);
            ("restored", r.total_restored); ("lost", r.total_lost) ] );
      ("clean_violations", Json.int r.clean_violations);
      ("ok", Json.bool (ok r)) ]
