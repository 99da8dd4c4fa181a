(* Tests for the many-domain scale-out work: the rebuilt O(1)/O(log n)
   hot-path structures checked op-for-op against their seed-shape
   reference models, the typed errors across the public API, and the
   scale experiment's determinism. *)

open Engine
open Core

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Frame stack vs the seed's list model -------------------------- *)

(* The seed kept each frame stack as a bare [int list] (top first).
   The intrusive rebuild must match it op-for-op, including the full
   resulting order after every operation. *)

type fs_op =
  | Fpush of int
  | Fremove of int
  | Ftop of int
  | Fbottom of int
  | Ftop_k of int

let fs_op_gen =
  QCheck.Gen.(
    oneof
      [ map (fun p -> Fpush p) (int_range 0 15);
        map (fun p -> Fremove p) (int_range 0 15);
        map (fun p -> Ftop p) (int_range 0 15);
        map (fun p -> Fbottom p) (int_range 0 15);
        map (fun k -> Ftop_k k) (int_range 0 8) ])

let fs_op_print = function
  | Fpush p -> Printf.sprintf "push %d" p
  | Fremove p -> Printf.sprintf "remove %d" p
  | Ftop p -> Printf.sprintf "top %d" p
  | Fbottom p -> Printf.sprintf "bottom %d" p
  | Ftop_k k -> Printf.sprintf "top_k %d" k

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let fs_apply fs model op =
  match op with
  | Fpush p ->
    if List.mem p !model then (
      match Frame_stack.push fs p with
      | () -> failwith "push of a present frame did not raise"
      | exception Invalid_argument _ -> ())
    else begin
      Frame_stack.push fs p;
      model := p :: !model
    end
  | Fremove p ->
    let expected = List.mem p !model in
    if Frame_stack.remove fs p <> expected then
      failwith "remove return value disagrees with the model";
    model := List.filter (fun q -> q <> p) !model
  | Ftop p ->
    if List.mem p !model then begin
      Frame_stack.move_to_top fs p;
      model := p :: List.filter (fun q -> q <> p) !model
    end
    else (
      match Frame_stack.move_to_top fs p with
      | () -> failwith "move_to_top of an absent frame did not raise"
      | exception Not_found -> ())
  | Fbottom p ->
    if List.mem p !model then begin
      Frame_stack.move_to_bottom fs p;
      model := List.filter (fun q -> q <> p) !model @ [ p ]
    end
    else (
      match Frame_stack.move_to_bottom fs p with
      | () -> failwith "move_to_bottom of an absent frame did not raise"
      | exception Not_found -> ())
  | Ftop_k k ->
    if Frame_stack.top_k fs k <> take k !model then
      failwith "top_k disagrees with the model"

let frame_stack_matches_model =
  QCheck.Test.make ~name:"frame stack matches the seed list model op-for-op"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map fs_op_print ops))
       QCheck.Gen.(list_size (int_range 1 60) fs_op_gen))
    (fun ops ->
      let fs = Frame_stack.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          fs_apply fs model op;
          Frame_stack.to_list fs = !model
          && Frame_stack.size fs = List.length !model)
        ops)

let frame_stack_unit () =
  let fs = Frame_stack.create () in
  Frame_stack.push fs 3;
  Frame_stack.push fs 7;
  Alcotest.check_raises "duplicate push"
    (Invalid_argument "Frame_stack.push: frame already present") (fun () ->
      Frame_stack.push fs 3);
  checkb "absent remove" false (Frame_stack.remove fs 99);
  Alcotest.check_raises "absent move" Not_found (fun () ->
      Frame_stack.move_to_top fs 99);
  Alcotest.(check (list int)) "order" [ 7; 3 ] (Frame_stack.to_list fs);
  Frame_stack.move_to_bottom fs 7;
  Alcotest.(check (list int)) "demoted" [ 3; 7 ] (Frame_stack.to_list fs);
  Alcotest.(check (list int)) "top_k over-ask" [ 3; 7 ]
    (Frame_stack.top_k fs 5)

(* --- Heap-backed EDF vs the seed's fold model ---------------------- *)

(* The seed picked the next client by folding over the member list in
   admission order, keeping the earliest deadline with budget (first
   admitted wins ties) among the clients its caller's predicate
   accepted, and replenished by scanning every member. The model below
   is that fold, with the caller's predicates as the runnable and
   backlogged flags. The Atropos-shaped core must pick the same client
   from [select] and [select_slack], report the same next deadlines
   and call the boundary hook for the same clients in the same order,
   after any sequence of admissions, charges (overruns included),
   flag flips, removals and clock advances. *)

type m_client = {
  m_name : string;
  m_id : int;
  m_period : int;
  m_slice : int;
  m_extra : bool;
  mutable m_deadline : int;
  mutable m_remaining : int;
  mutable m_runnable : bool;
  mutable m_backlogged : bool;
}

type edf_op =
  | Eadmit of int * int * bool  (** (period choice, slice choice, x) *)
  | Eadvance of int  (** ms *)
  | Echarge of int * int  (** (client pick, span us) *)
  | Eremove of int  (** client pick *)
  | Eremove_winner
  | Erunnable of int * bool  (** (client pick, flag) *)
  | Ebacklogged of int * bool
  | Eselect
  | Eselect_only of int  (** bit mask over client ids mod 8 *)
  | Eslack

let edf_op_gen =
  QCheck.Gen.(
    frequency
      [ (2, map3 (fun p s x -> Eadmit (p, s, x)) (int_range 0 3) (int_range 0 2)
             bool);
        (3, map (fun d -> Eadvance d) (int_range 1 12));
        (3, map2 (fun i u -> Echarge (i, u)) (int_range 0 7)
             (int_range 100 3000));
        (1, map (fun i -> Eremove i) (int_range 0 7));
        (1, return Eremove_winner);
        (2, map2 (fun i b -> Erunnable (i, b)) (int_range 0 7) bool);
        (2, map2 (fun i b -> Ebacklogged (i, b)) (int_range 0 7) bool);
        (4, return Eselect);
        (1, map (fun m -> Eselect_only m) (int_range 0 255));
        (2, return Eslack) ])

let edf_op_print = function
  | Eadmit (p, s, x) ->
    Printf.sprintf "admit %d %d%s" p s (if x then " x" else "")
  | Eadvance d -> Printf.sprintf "advance %dms" d
  | Echarge (i, u) -> Printf.sprintf "charge %d %dus" i u
  | Eremove i -> Printf.sprintf "remove %d" i
  | Eremove_winner -> "remove winner"
  | Erunnable (i, b) -> Printf.sprintf "runnable %d %b" i b
  | Ebacklogged (i, b) -> Printf.sprintf "backlogged %d %b" i b
  | Eselect -> "select"
  | Eselect_only m -> Printf.sprintf "select only %#x" m
  | Eslack -> "select_slack"

let m_utilisation model =
  List.fold_left
    (fun acc c -> acc +. (float_of_int c.m_slice /. float_of_int c.m_period))
    0.0 model

(* The seed's replenish, verbatim semantics (rollover on). *)
let m_replenish now c =
  while c.m_deadline <= now do
    let carry = if c.m_remaining < 0 then c.m_remaining else 0 in
    c.m_remaining <- c.m_slice + carry;
    c.m_deadline <- c.m_deadline + c.m_period
  done

(* The seed's pick-next fold, over the clients [ok] accepts. *)
let m_fold ok model =
  List.fold_left
    (fun best c ->
      if ok c then
        match best with
        | Some b when b.m_deadline <= c.m_deadline -> best
        | _ -> Some c
      else best)
    None model

let m_select ?(only = fun _ -> true) model =
  m_fold (fun c -> c.m_runnable && c.m_remaining > 0 && only c) model

let m_select_slack model = m_fold (fun c -> c.m_backlogged && c.m_extra) model

let m_next_deadline ok model =
  Option.map (fun c -> c.m_deadline) (m_fold ok model)

let edf_matches_fold =
  let periods = [| Time.ms 2; Time.ms 3; Time.ms 5; Time.ms 10 |] in
  let slices = [| Time.us 400; Time.us 700; Time.ms 1 |] in
  QCheck.Test.make
    ~name:"heap EDF picks the same client as the seed fold" ~count:400
    (QCheck.make
       ~print:(fun (by_id, ops) ->
         Printf.sprintf "%s: %s"
           (if by_id then "by admission" else "by deadline")
           (String.concat "; " (List.map edf_op_print ops)))
       QCheck.Gen.(pair bool (list_size (int_range 1 120) edf_op_gen)))
    (fun (by_id, ops) ->
      let order =
        if by_id then Sched.Edf.By_admission else Sched.Edf.By_deadline
      in
      let edf = Sched.Edf.create ~order () in
      let hook_calls = ref [] in
      Sched.Edf.set_boundary_hook edf (fun c ~unused:_ ~boundary:_ ~grants:_ ->
          hook_calls := c.Sched.Edf.cname :: !hook_calls);
      let model = ref [] in
      let next = ref 0 in
      let now = ref Time.zero in
      let pick i l = List.nth l (i mod List.length l) in
      let same real expect =
        match (real, expect) with
        | None, None -> true
        | Some (r : Sched.Edf.client), Some m -> r.Sched.Edf.cname = m.m_name
        | _ -> false
      in
      let with_client i f =
        match Sched.Edf.clients edf with
        | [] -> ()
        | real -> f (pick i real) (pick i !model)
      in
      let remove (victim : Sched.Edf.client) =
        Sched.Edf.remove edf victim;
        model :=
          List.filter (fun m -> m.m_name <> victim.Sched.Edf.cname) !model
      in
      let replenish () =
        hook_calls := [];
        Sched.Edf.replenish_due edf ~now:!now;
        (* Due clients in the seed's scan, put in the core's order. *)
        let due =
          List.filter_map
            (fun m ->
              if m.m_deadline <= !now then Some (m.m_deadline, m) else None)
            !model
        in
        let due =
          if by_id then due
          else
            List.stable_sort
              (fun (d, a) (d', b) -> compare (d, a.m_id) (d', b.m_id))
              due
        in
        List.iter (m_replenish !now) !model;
        if List.rev !hook_calls <> List.map (fun (_, m) -> m.m_name) due then
          failwith "boundary hook order disagrees with the scan"
      in
      List.for_all
        (fun op ->
          (match op with
          | Eadmit (p, s, extra) ->
            let period = periods.(p) and slice = slices.(s) in
            let name = Printf.sprintf "c%d" !next in
            incr next;
            let refused =
              m_utilisation !model
              +. (float_of_int slice /. float_of_int period)
              > 1.0 +. 1e-9
            in
            (match
               Sched.Edf.admit edf ~name ~period ~slice ~extra ~now:!now ()
             with
            | Ok _ when refused -> failwith "model refused, EDF admitted"
            | Error _ when not refused ->
              failwith "model admitted, EDF refused"
            | Ok c ->
              model :=
                !model
                @ [ { m_name = name; m_id = c.Sched.Edf.id; m_period = period;
                      m_slice = slice; m_extra = extra;
                      m_deadline = !now + period; m_remaining = slice;
                      m_runnable = true; m_backlogged = true } ]
            | Error _ -> ())
          | Eadvance d -> now := Time.add !now (Time.ms d)
          | Echarge (i, us) ->
            with_client i (fun r m ->
                Sched.Edf.charge r (Time.us us);
                m.m_remaining <- m.m_remaining - Time.us us)
          | Eremove i -> with_client i (fun r _ -> remove r)
          | Eremove_winner -> (
            replenish ();
            match Sched.Edf.select edf ~now:!now with
            | Some w -> remove w
            | None -> ())
          | Erunnable (i, b) ->
            with_client i (fun r m ->
                Sched.Edf.set_runnable edf r b;
                m.m_runnable <- b)
          | Ebacklogged (i, b) ->
            with_client i (fun r m ->
                Sched.Edf.set_backlogged edf r b;
                m.m_backlogged <- b)
          | Eselect ->
            replenish ();
            if not (same (Sched.Edf.select edf ~now:!now) (m_select !model))
            then failwith "select disagrees with the fold"
          | Eselect_only mask ->
            replenish ();
            let only_id id = mask land (1 lsl (id mod 8)) <> 0 in
            let real =
              Sched.Edf.select edf ~now:!now
                ~only:(fun c -> only_id c.Sched.Edf.id)
            in
            if not (same real (m_select ~only:(fun m -> only_id m.m_id) !model))
            then failwith "select ~only disagrees with the fold"
          | Eslack ->
            replenish ();
            if not (same (Sched.Edf.select_slack edf ~now:!now)
                      (m_select_slack !model))
            then failwith "select_slack disagrees with the fold");
          if
            Sched.Edf.next_deadline edf
            <> m_next_deadline (fun _ -> true) !model
          then failwith "next_deadline disagrees with the fold";
          if Sched.Edf.next_backlogged_deadline edf
             <> m_next_deadline (fun m -> m.m_backlogged) !model
          then failwith "next_backlogged_deadline disagrees with the fold";
          (* The member list itself must stay in admission order with
             identical accounting state. *)
          List.for_all2
            (fun (r : Sched.Edf.client) m ->
              r.Sched.Edf.cname = m.m_name
              && r.Sched.Edf.deadline = m.m_deadline
              && r.Sched.Edf.remaining = m.m_remaining
              && r.Sched.Edf.runnable = m.m_runnable
              && r.Sched.Edf.backlogged = m.m_backlogged)
            (Sched.Edf.clients edf) !model)
        ops)

let edf_tie_break () =
  let edf = Sched.Edf.create () in
  let admit name =
    match
      Sched.Edf.admit edf ~name ~period:(Time.ms 10) ~slice:(Time.ms 2)
        ~now:Time.zero ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let a = admit "first" in
  let _b = admit "second" in
  let _c = admit "third" in
  (* Equal deadlines: the first-admitted client must win, as the seed
     fold's [<=] kept it. *)
  (match Sched.Edf.select edf ~now:Time.zero with
  | Some c -> Alcotest.(check string) "tie" "first" c.Sched.Edf.cname
  | None -> Alcotest.fail "no client selected");
  (* Exhaust the winner: the tie moves to the next admission. *)
  Sched.Edf.charge a (Time.ms 2);
  match Sched.Edf.select edf ~now:Time.zero with
  | Some c -> Alcotest.(check string) "next tie" "second" c.Sched.Edf.cname
  | None -> Alcotest.fail "no client selected"

let edf_replenish_due () =
  let edf = Sched.Edf.create () in
  let admit name period =
    match
      Sched.Edf.admit edf ~name ~period ~slice:(Time.ms 1) ~now:Time.zero ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let a = admit "a" (Time.ms 10) in
  let b = admit "b" (Time.ms 40) in
  Sched.Edf.charge a (Time.ms 1);
  Sched.Edf.charge b (Time.ms 1);
  (* Only a's boundary has passed at 15 ms: replenish_due must refill
     a and leave b alone. *)
  Sched.Edf.replenish_due edf ~now:(Time.ms 15);
  checkb "a refilled" true (Sched.Edf.has_budget a);
  checkb "b untouched" false (Sched.Edf.has_budget b);
  check "a deadline advanced" (Time.ms 20) a.Sched.Edf.deadline;
  check "b deadline unchanged" (Time.ms 40) b.Sched.Edf.deadline

(* The decision the many-domain runs make on every event: 128 clients
   hold budget, 3 have work. A decision must look at the runnable
   clients only and allocate nothing but the [Some] it returns (2
   words), replenishment included; a decision that finds nobody
   allocates nothing at all. *)
let edf_select_allocation () =
  let edf = Sched.Edf.create () in
  let n = 128 in
  let clients =
    Array.init n (fun i ->
        match
          Sched.Edf.admit edf ~name:(string_of_int i) ~period:(Time.ms 10)
            ~slice:(Time.us (7_700 / n)) ~now:Time.zero ()
        with
        | Ok c -> c
        | Error e -> failwith e)
  in
  Array.iteri
    (fun i c -> Sched.Edf.set_runnable edf c (i mod 43 = 0))
    clients;
  let now = ref Time.zero in
  let picked = ref 0 in
  let step () =
    now := Time.add !now (Time.us 50);
    Sched.Edf.replenish_due edf ~now:!now;
    match Sched.Edf.select edf ~now:!now with
    | Some c ->
      incr picked;
      Sched.Edf.charge c (Time.us 50)
    | None -> ()
  in
  for _ = 1 to 1_000 do step () done;
  let calls = 10_000 in
  picked := 0;
  let before = Gc.minor_words () in
  for _ = 1 to calls do step () done;
  let words = Gc.minor_words () -. before in
  (* 10,000 steps of 50 us are 50 periods, in each of which the three
     runnable clients are owed 60 us: 9 ms of 50 us grants in all. *)
  check "grants served" 180 !picked;
  if words > float_of_int (2 * !picked) +. 8. then
    Alcotest.failf "%.0f words for %d selects, %d of them picking (want %d)"
      words calls !picked (2 * !picked)

(* --- Typed errors across the public API ---------------------------- *)

let frames_fixture () =
  let sim = Sim.create () in
  let rt = Hw.Ramtab.create ~nframes:8 in
  Frames.create sim rt ~nframes:8

let frames_overcommit_payload () =
  let fr = frames_fixture () in
  (match Frames.admit fr ~domain:1 ~guarantee:5 ~optimistic:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "honest admission refused");
  (match Frames.admit fr ~domain:2 ~guarantee:4 ~optimistic:0 with
  | Error (Frames.Admission_overcommit { requested; available }) ->
    check "requested" 4 requested;
    check "available" 3 available
  | Ok _ -> Alcotest.fail "overcommit admitted"
  | Error _ -> Alcotest.fail "wrong error");
  (match Frames.admit fr ~domain:3 ~guarantee:(-1) ~optimistic:0 with
  | Error Frames.Negative_quota -> ()
  | _ -> Alcotest.fail "negative quota not typed");
  Alcotest.(check string) "rendered message"
    "admission refused: 4 guaranteed frames requested, 3 available"
    (Frames.error_message
       (Frames.Admission_overcommit { requested = 4; available = 3 }))

(* [transfer]'s three refusals: a frame still in use (mapped, or
   shared by another mapping), a destination at its quota, and a frame
   its source does not own. *)
let frames_transfer_errors () =
  let sim = Sim.create () in
  let rt = Hw.Ramtab.create ~nframes:8 in
  let fr = Frames.create sim rt ~nframes:8 in
  let admit domain guarantee =
    match Frames.admit fr ~domain ~guarantee ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let src = admit 1 3 and dst = admit 2 1 in
  let take c =
    match Frames.alloc fr c with
    | Some pfn -> pfn
    | None -> Alcotest.fail "guaranteed allocation refused"
  in
  let mapped = take src in
  let shared = take src in
  let settled = take src in
  Hw.Ramtab.set_state rt ~pfn:mapped Hw.Ramtab.Mapped;
  (match Frames.transfer fr ~src ~dst mapped with
  | Error (Frames.Frame_in_use { pfn }) -> check "mapped frame named" mapped pfn
  | _ -> Alcotest.fail "mapped frame transferred");
  Hw.Ramtab.add_ref rt ~pfn:shared;
  (match Frames.transfer fr ~src ~dst shared with
  | Error (Frames.Frame_in_use { pfn }) -> check "shared frame named" shared pfn
  | _ -> Alcotest.fail "shared frame transferred");
  ignore (take dst);
  (match Frames.transfer fr ~src ~dst settled with
  | Error (Frames.Quota_exhausted { held = 1; quota = 1 }) -> ()
  | _ -> Alcotest.fail "quota exhaustion not typed");
  check "refused transfers leave the source's frames" 3 (Frames.held src);
  Alcotest.check_raises "frame the source does not own"
    (Invalid_argument "Frames.transfer: frame not owned by source client")
    (fun () -> ignore (Frames.transfer fr ~src:dst ~dst:src settled))

let cpu_consume_removed () =
  let sim = Sim.create () in
  let cpu = Sched.Cpu.create sim in
  let c =
    match
      Sched.Cpu.admit cpu ~name:"gone" ~period:(Time.ms 10)
        ~slice:(Time.ms 2) ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  Sched.Cpu.remove cpu c;
  ignore
    (Proc.spawn sim (fun () ->
         match Sched.Cpu.consume cpu c (Time.ms 1) with
         | Error `Removed -> ()
         | Ok () -> Alcotest.fail "consume on removed contract succeeded"));
  Sim.run ~until:(Time.ms 100) sim

let link_send_retired () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  let c =
    match
      Usnet.Link.admit link ~name:"a" ~period:(Time.ms 10)
        ~slice:(Time.ms 5) ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  Usnet.Link.retire link c;
  (match Usnet.Link.send link c ~bytes:1000 with
  | Error `Retired -> ()
  | Ok _ -> Alcotest.fail "send on retired client accepted");
  match Usnet.Link.transmit link c ~bytes:1000 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "transmit on retired client succeeded"

let file_store_retired () =
  let sys = System.create () in
  let store = System.file_store sys in
  let f =
    match
      Usbs.File_store.create_file store ~name:"dead.dat" ~bytes:8192
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let qos = Usbs.Qos.make ~period:(Time.ms 100) ~slice:(Time.ms 10) () in
  let c =
    match Usbs.Usd.admit (System.usd sys) ~name:"dead" ~qos () with
    | Ok c -> c
    | Error e -> failwith e
  in
  Usbs.Usd.retire (System.usd sys) c;
  (match Usbs.File_store.read_page store f ~client:c ~page_index:0 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "read through retired client succeeded"
  | Error (`Media _) -> Alcotest.fail "wrong error shape");
  match Usbs.File_store.write_page store f ~client:c ~page_index:0 with
  | Error `Retired -> ()
  | Ok () -> Alcotest.fail "write through retired client succeeded"
  | Error (`Media _) -> Alcotest.fail "wrong error shape"

let system_errors_typed () =
  let sys = System.create () in
  (* CPU refusal: slice exceeds period. *)
  (match
     System.add_domain sys ~name:"bad" ~cpu_period:(Time.ms 1)
       ~cpu_slice:(Time.ms 2) ~guarantee:1 ~optimistic:0 ()
   with
  | Error (System.Cpu_admission { reason }) ->
    Alcotest.(check string) "cpu message" ("cpu: " ^ reason)
      (System.error_message (System.Cpu_admission { reason }))
  | _ -> Alcotest.fail "cpu refusal not typed");
  (* Frames refusal carries the Frames.error inside. *)
  let total = Frames.total_frames (System.frames sys) in
  match
    System.add_domain sys ~name:"greedy" ~guarantee:(total + 1)
      ~optimistic:0 ()
  with
  | Error
      (System.Frames_admission (Frames.Admission_overcommit { requested; _ })
       as e) ->
    check "requested" (total + 1) requested;
    checkb "rendered with frames: prefix" true
      (String.length (System.error_message e) > 7
      && String.sub (System.error_message e) 0 7 = "frames:")
  | _ -> Alcotest.fail "frames refusal not typed"

(* --- The experiment: determinism and the full verdict -------------- *)

let scale_deterministic () =
  let j1 =
    Json.to_string
      (Experiments.Scale.to_json
         (Experiments.Scale.run ~seed:7 ~domains:6 ~duration:(Time.sec 3) ()))
  in
  let j2 =
    Json.to_string
      (Experiments.Scale.to_json
         (Experiments.Scale.run ~seed:7 ~domains:6 ~duration:(Time.sec 3) ()))
  in
  Alcotest.(check string) "same seed, byte-identical record" j1 j2

let scale_verdict () =
  let r = Experiments.Scale.run ~domains:32 ~duration:(Time.sec 30) () in
  check "zero violations" 0 r.Experiments.Scale.violations;
  checkb "books balance" true r.Experiments.Scale.books_balanced;
  checkb "every domain measured" true
    (r.Experiments.Scale.measured_domains = 32);
  checkb "verdict" true (Experiments.Scale.ok r)

let suite =
  [ ( "scale.frame_stack",
      [ qtest frame_stack_matches_model;
        Alcotest.test_case "unit edges" `Quick frame_stack_unit ] );
    ( "scale.edf",
      [ qtest edf_matches_fold;
        Alcotest.test_case "deadline ties go to first admitted" `Quick
          edf_tie_break;
        Alcotest.test_case "replenish_due only touches due clients" `Quick
          edf_replenish_due;
        Alcotest.test_case "select allocates only its result" `Quick
          edf_select_allocation ] );
    ( "scale.errors",
      [ Alcotest.test_case "admission overcommit payload" `Quick
          frames_overcommit_payload;
        Alcotest.test_case "transfer refusals typed" `Quick
          frames_transfer_errors;
        Alcotest.test_case "consume on removed CPU contract" `Quick
          cpu_consume_removed;
        Alcotest.test_case "send on retired link client" `Quick
          link_send_retired;
        Alcotest.test_case "file store on retired USD client" `Quick
          file_store_retired;
        Alcotest.test_case "system admission errors typed" `Quick
          system_errors_typed ] );
    ( "scale.experiment",
      [ Alcotest.test_case "same seed, same JSON record" `Quick
          scale_deterministic;
        Alcotest.test_case "32-domain verdict" `Slow scale_verdict ] ) ]
