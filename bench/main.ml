(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: real wall-clock cost of the
   implementation's hot operations (the data structures behind Table 1
   and the simulation substrate). These demonstrate the algorithmic
   shapes (O(1) pdom protect vs O(n) page-table protect, linear vs
   guarded table walks) with measured nanoseconds rather than model
   constants.

   Part 2 — the BENCH records: one table of (name, record) pairs. Each
   record runs its experiment, prints the text report and returns its
   verdict with the JSON written to BENCH_<name>.json, so revisions
   can be diffed record by record.

   Part 3 — one argv rule: no argument runs the micro-benchmarks and
   every record, names run the named records; once all are written, a
   false verdict exits 1. Tables and figures: `nemesis_sim all`. *)

open Bechamel
open Toolkit
open Engine
open Hw
open Core

(* --- Part 1: Bechamel micro-benchmarks ----------------------------- *)

(* Fixtures are built once; the staged closures mutate them in place. *)

let bench_pte =
  let counter = ref 0 in
  Test.make ~name:"pte/pack+unpack"
    (Staged.stage (fun () ->
         incr counter;
         let pte =
           Pte.set_valid
             (Pte.make ~sid:(!counter land 0xff) ~global:Rights.read_write)
             ~pfn:(!counter land 0xffff)
         in
         ignore (Pte.dirty pte);
         ignore (Pte.pfn pte)))

let bench_linear_lookup =
  let pt = Linear_pt.create ~va_bits:28 () in
  for vpn = 0 to 4095 do
    Linear_pt.set pt vpn (Pte.make ~sid:1 ~global:Rights.read)
  done;
  let i = ref 0 in
  Test.make ~name:"page_table/linear-lookup"
    (Staged.stage (fun () ->
         i := (!i + 577) land 4095;
         ignore (Linear_pt.lookup pt !i)))

let bench_guarded_lookup =
  let pt = Guarded_pt.create ~va_bits:28 () in
  for vpn = 0 to 4095 do
    Guarded_pt.set pt vpn (Pte.make ~sid:1 ~global:Rights.read)
  done;
  let i = ref 0 in
  Test.make ~name:"page_table/guarded-lookup"
    (Staged.stage (fun () ->
         i := (!i + 577) land 4095;
         ignore (Guarded_pt.lookup pt !i)))

let bench_tlb_hit =
  let tlb = Tlb.create () in
  let pte = Pte.set_valid (Pte.make ~sid:1 ~global:Rights.all) ~pfn:3 in
  Tlb.insert tlb ~asn:1 ~vpn:42 pte;
  Test.make ~name:"tlb/hit"
    (Staged.stage (fun () -> ignore (Tlb.lookup tlb ~asn:1 ~vpn:42)))

let bench_pdom_protect =
  (* Table 1 "(un)prot" via a protection domain: O(1) in stretch size. *)
  let pd = Pdom.create ~asn:1 in
  let flip = ref false in
  Test.make ~name:"table1/prot-pdom (O(1))"
    (Staged.stage (fun () ->
         flip := not !flip;
         Pdom.set pd ~sid:7 (if !flip then Rights.rw_meta else Rights.read)))

(* A translation fixture shared by the page-table protect benches. *)
let protect_fixture npages =
  let pt = Linear_pt.create ~va_bits:28 () in
  let mmu = Mmu.create ~pt:(Linear_pt.impl pt) ~cost:Cost.nemesis () in
  let ramtab = Ramtab.create ~nframes:16 in
  let translation = Translation.create mmu ramtab in
  let pd = Pdom.create ~asn:1 in
  Pdom.set pd ~sid:3 Rights.rw_meta;
  Translation.add_null_range translation ~sid:3 ~global:Rights.read
    ~base:(1 lsl 20) ~npages;
  (translation, pd)

let bench_pt_protect npages =
  let translation, pd = protect_fixture npages in
  let flip = ref false in
  Test.make ~name:(Printf.sprintf "table1/prot%d-pt (O(n))" npages)
    (Staged.stage (fun () ->
         flip := not !flip;
         let rights = if !flip then Rights.read_write else Rights.read in
         match
           Translation.protect_range translation ~pdom:pd ~base:(1 lsl 20)
             ~npages rights
         with
         | Ok _ -> ()
         | Error _ -> assert false))

let bench_dirty_lookup =
  (* Table 1 "dirty": user-level page-table read + bit test. *)
  let translation, _ = protect_fixture 128 in
  let mmu = Translation.mmu translation in
  let i = ref 0 in
  Test.make ~name:"table1/dirty"
    (Staged.stage (fun () ->
         i := (!i + 17) land 127;
         let pte = Mmu.lookup mmu ~vpn:(((1 lsl 20) lsr 13) + !i) in
         ignore (Pte.dirty pte)))

let bench_bloks =
  let b = Bloks.create ~nbloks:2048 in
  Test.make ~name:"bloks/alloc+free"
    (Staged.stage (fun () ->
         match Bloks.alloc b with
         | Some blok -> Bloks.free b blok
         | None -> assert false))

let bench_heap =
  let h = Heap.create () in
  let i = ref 0 in
  Test.make ~name:"sim/heap push+pop"
    (Staged.stage (fun () ->
         incr i;
         Heap.push h ~key:(!i * 7919 mod 1000) ~sub:!i ();
         ignore (Heap.pop h)))

(* [n] EDF clients, periods 10, 20, ... ms, 1 ms slices. *)
let edf_fixture n =
  let edf = Sched.Edf.create () in
  for i = 1 to n do
    match
      Sched.Edf.admit edf
        ~name:(string_of_int i)
        ~period:(Time.ms (10 * i))
        ~slice:(Time.ms 1) ~now:Time.zero ()
    with
    | Ok _ -> ()
    | Error _ -> assert false
  done;
  edf

let bench_edf_select =
  let edf = edf_fixture 10 in
  Test.make ~name:"usd/edf-select (10 clients)"
    (Staged.stage (fun () -> ignore (Sched.Edf.select edf ~now:Time.zero)))

(* Full simulated fault round trip (Table 1 "trap"): each call takes
   one page fault through kernel dispatch, activation, MMEntry and a
   pool stretch driver, then resets the mapping. Wall-clock measures
   how fast the whole simulator executes the path. *)
let bench_sim_trap =
  let sys = System.create () in
  let d =
    match System.add_domain sys ~name:"bench" ~guarantee:4 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let stretch =
    match System.alloc_stretch d ~bytes:Addr.page_size () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pool = ref [] in
  let driver =
    { Stretch_driver.name = "bench-pool";
      bind = (fun _ -> ());
      fast =
        (fun fault ->
          match !pool with
          | pfn :: rest ->
            pool := rest;
            Stretch_driver.map_page d.System.env fault.Fault.va ~pfn;
            Stretch_driver.Success
          | [] -> Stretch_driver.Failure "empty");
      full = (fun _ -> Stretch_driver.Failure "unused");
      relinquish = (fun ~want:_ -> 0);
      resident_pages = (fun () -> 0);
      free_frames = (fun () -> List.length !pool) }
  in
  Mm_entry.bind d.System.mm stretch driver;
  let sim = System.sim sys in
  let trap_once () =
    Domains.access d.System.dom stretch.Stretch.base `Read;
    let pte = Stretch_driver.unmap_page d.System.env stretch.Stretch.base in
    pool := [ Pte.pfn pte ]
  in
  let pending = Sync.Mailbox.create () in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"driver" (fun () ->
         (match Frames.alloc (System.frames sys) d.System.frames_client with
         | Some pfn -> pool := [ pfn ]
         | None -> failwith "no frame");
         let rec loop () =
           let reply = Sync.Mailbox.recv pending in
           trap_once ();
           Sync.Ivar.fill reply ();
           loop ()
         in
         loop ()));
  Test.make ~name:"sim/full-fault-round-trip"
    (Staged.stage (fun () ->
         let reply = Sync.Ivar.create () in
         Sync.Mailbox.send pending reply;
         while Sync.Ivar.peek reply = None && Sim.step sim do
           ()
         done))

let micro_tests =
  [ bench_pte; bench_linear_lookup; bench_guarded_lookup; bench_tlb_hit;
    bench_dirty_lookup; bench_pdom_protect; bench_pt_protect 1;
    bench_pt_protect 100; bench_bloks; bench_heap; bench_edf_select;
    bench_sim_trap ]

(* Bechamel OLS ns/op per test, sorted by name; [nan] when the
   regression has no estimate. *)
let measure ~name tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25)
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Hashtbl.fold
    (fun name ols_result rows ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> Float.nan
      in
      (name, ns) :: rows)
    (Analyze.all ols instance raw)
    []
  |> List.sort compare

let print_measured ~title rows shape_checks =
  Experiments.Report.heading title;
  Experiments.Report.table ~header:[ "operation"; "ns/op" ]
    (List.map
       (fun (name, ns) ->
         [ name;
           (if Float.is_nan ns then "n/a" else Printf.sprintf "%.1f" ns) ])
       rows);
  print_newline ();
  List.iter print_endline shape_checks;
  flush stdout

let run_micro () =
  print_measured ~title:"Micro-benchmarks (wall-clock, Bechamel OLS ns/op)"
    (measure ~name:"micro" micro_tests)
    [ "Shape checks (wall-clock): guarded lookup costs several times the";
      "linear lookup; prot100-pt costs ~100x prot1-pt; prot-pdom is O(1)." ]

(* --- Part 2: the BENCH records ------------------------------------- *)

(* The scale record's micro-benches: the hot paths the many-domain
   work rebuilt, measured against the seed's list shapes at 8/64/256
   clients. The seed kept each frame stack as an [int list] (remove =
   filter, move-to-top = filter+cons) and picked the next EDF client
   by folding over the member list; both are rebuilt as O(1)/O(log n)
   structures, and these benches document the before/after shape: the
   baselines grow linearly from 8 to 256, the new paths must not. *)

module Seed_frame_stack = struct
  (* The seed's frame stack, verbatim shape: top-first [int list]. *)
  type t = int list ref

  let create () : t = ref []
  let push t pfn = t := pfn :: !t
  let remove t pfn = t := List.filter (fun p -> p <> pfn) !t

  let move_to_top t pfn =
    remove t pfn;
    push t pfn
end

let scale_sizes = [ 8; 64; 256 ]

(* A frame stack holding frames 0..n-1; each op applies [op] to the
   next frame, stepping 97 at a time. *)
let bench_fs ~name create push op n =
  let fs = create () in
  for pfn = 0 to n - 1 do
    push fs pfn
  done;
  let i = ref 0 in
  Test.make ~name:(Printf.sprintf "frame_stack/%s n=%03d" name n)
    (Staged.stage (fun () ->
         i := (!i + 97) mod n;
         op fs !i))

let bench_fs_remove =
  bench_fs ~name:"remove+push" Frame_stack.create Frame_stack.push
    (fun fs pfn ->
      ignore (Frame_stack.remove fs pfn);
      Frame_stack.push fs pfn)

let bench_fs_move =
  bench_fs ~name:"move-to-top" Frame_stack.create Frame_stack.push
    Frame_stack.move_to_top

let bench_fs_seed =
  bench_fs ~name:"seed-list remove+push" Seed_frame_stack.create
    Seed_frame_stack.push (fun fs pfn ->
      Seed_frame_stack.remove fs pfn;
      Seed_frame_stack.push fs pfn)

let bench_fs_seed_move =
  bench_fs ~name:"seed-list move-to-top" Seed_frame_stack.create
    Seed_frame_stack.push Seed_frame_stack.move_to_top

let bench_edf_pick n =
  let edf = edf_fixture n in
  Test.make ~name:(Printf.sprintf "edf/pick-next n=%03d" n)
    (Staged.stage (fun () -> ignore (Sched.Edf.select edf ~now:Time.zero)))

(* The decision of a many-domain run: every client holds budget but
   only three have work. Each op advances the clock 50 us, replenishes
   the due clients, picks and charges the winner. *)
let bench_edf_pick_sparse n =
  let edf = Sched.Edf.create () in
  let slice = Time.us (max 20 (7_700 / n)) in
  for i = 0 to n - 1 do
    match
      Sched.Edf.admit edf ~name:(string_of_int i) ~period:(Time.ms 10) ~slice
        ~now:Time.zero ()
    with
    | Ok c ->
      Sched.Edf.set_runnable edf c (i mod (n / 3) = 0 && i / (n / 3) < 3)
    | Error _ -> assert false
  done;
  let now = ref Time.zero in
  Test.make ~name:(Printf.sprintf "edf/pick-next 3-of-n runnable n=%03d" n)
    (Staged.stage (fun () ->
         now := Time.add !now (Time.us 50);
         Sched.Edf.replenish_due edf ~now:!now;
         match Sched.Edf.select edf ~now:!now with
         | Some c -> Sched.Edf.charge c (Time.us 50)
         | None -> ()))

(* The seed's pick-next: fold over the member list for the earliest
   deadline with budget (first admitted wins ties). *)
type seed_edf_client = { sc_deadline : Time.t; sc_budget : Time.span }

let bench_edf_seed_pick n =
  let members =
    List.init n (fun i ->
        { sc_deadline = Time.ms (10 * (i + 1)); sc_budget = Time.ms 1 })
  in
  Test.make ~name:(Printf.sprintf "edf/seed-fold pick-next n=%03d" n)
    (Staged.stage (fun () ->
         ignore
           (List.fold_left
              (fun best c ->
                if c.sc_budget <= 0 then best
                else
                  match best with
                  | Some b when b.sc_deadline <= c.sc_deadline -> best
                  | _ -> Some c)
              None members)))

let scale_micro_tests =
  List.concat_map
    (fun n ->
      [ bench_fs_remove n; bench_fs_move n; bench_fs_seed n;
        bench_fs_seed_move n; bench_edf_pick n; bench_edf_pick_sparse n;
        bench_edf_seed_pick n ])
    scale_sizes

(* One end-to-end scale run of [speed_duration] simulated time, timed
   on the host: events executed, monotonic wall time and words
   allocated (minor + major - promoted, brought up to date by a minor
   collection). *)
type speed_row = {
  sp_domains : int;
  sp_events : int;
  sp_wall_ms : float;
  sp_words : float;
  sp_ok : bool;
}

let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let speed_duration = Time.sec 60

let scale_speed_row domains =
  Gc.compact ();
  let w0 = allocated_words () in
  let t0 = Monotonic_clock.get () in
  let r = Experiments.Scale.run ~domains ~duration:speed_duration () in
  let wall_ns = Monotonic_clock.get () -. t0 in
  let words = allocated_words () -. w0 in
  { sp_domains = domains; sp_events = r.Experiments.Scale.events;
    sp_wall_ms = wall_ns /. 1e6; sp_words = words;
    sp_ok = Experiments.Scale.ok r }

let us_per_event s = s.sp_wall_ms *. 1e3 /. float_of_int s.sp_events
let words_per_event s = s.sp_words /. float_of_int s.sp_events

(* The frame-stack and EDF micro-benches, an end-to-end 32-domain
   run, and the speed ledger: events, wall ms, us/event and
   words/event at 16/64/128 domains. *)
let scale_record () =
  let micro = measure ~name:"scale" scale_micro_tests in
  print_measured
    ~title:"Scale micro-benchmarks (wall-clock, Bechamel OLS ns/op)" micro
    [ "Shape checks (wall-clock): the seed-list baselines grow linearly";
      "from n=8 to n=256; the rebuilt frame-stack and heap EDF paths stay";
      "flat (O(1)) or near-flat (O(log n)), with three runnable clients as";
      "with all of them." ];
  let r = Experiments.Scale.run ~domains:32 ~duration:(Time.sec 30) () in
  Experiments.Scale.print r;
  flush stdout;
  let speed = List.map scale_speed_row [ 16; 64; 128 ] in
  Experiments.Report.heading
    (Printf.sprintf "Scale speed ledger (%.0f s simulated, host wall clock)"
       (Time.to_sec speed_duration));
  Experiments.Report.table
    ~header:[ "domains"; "events"; "wall ms"; "us/event"; "words/event" ]
    (List.map
       (fun s ->
         [ string_of_int s.sp_domains; string_of_int s.sp_events;
           Printf.sprintf "%.0f" s.sp_wall_ms;
           Printf.sprintf "%.2f" (us_per_event s);
           Printf.sprintf "%.0f" (words_per_event s) ])
       speed);
  let speed_json s =
    Json.obj
      [ ("domains", Json.int s.sp_domains);
        ("duration_s", Json.fixed 0 (Time.to_sec speed_duration));
        ("events", Json.int s.sp_events);
        ("wall_ms", Json.fixed 1 s.sp_wall_ms);
        ("us_per_event", Json.fixed 3 (us_per_event s));
        ("words_per_event", Json.fixed 1 (words_per_event s));
        ("ok", Json.bool s.sp_ok) ]
  in
  let micro_json (name, ns) =
    Json.obj [ ("name", Json.string name); ("ns", Json.fixed 1 ns) ]
  in
  ( Experiments.Scale.ok r && List.for_all (fun s -> s.sp_ok) speed,
    Json.obj
      [ ("micro_ns_per_op", Json.list (List.map micro_json micro));
        ("end_to_end", Experiments.Scale.to_json r);
        ("speed", Json.list (List.map speed_json speed)) ] )

let record run print to_json ok () =
  let r = run () in
  print r;
  (ok r, to_json r)

(* Every BENCH record, in run order. *)
let records =
  let open Experiments in
  let s = Time.sec in
  [ ( "policy",
      record (Policy_compare.run ~duration:(s 60)) Policy_compare.print
        Policy_compare.to_json Policy_compare.ok );
    ( "chaos",
      record (Chaos.run ~duration:(s 30)) Chaos.print Chaos.to_json Chaos.ok );
    ( "crash",
      record Crash_recover.run Crash_recover.print Crash_recover.to_json
        Crash_recover.ok );
    ( "backing",
      record (Harness.run_matrix ~duration:(s 30)) Harness.print_matrix
        Harness.matrix_json Harness.matrix_ok );
    ( "share",
      record Tenancy.bench Tenancy.bench_print Tenancy.bench_to_json
        (fun r -> r.Tenancy.b_ok) );
    ("scale", scale_record) ]

(* --- Part 3: the argv rule ----------------------------------------- *)

let write_record name =
  let ok, json = (List.assoc name records) () in
  Experiments.Catalog.write_file ("BENCH_" ^ name ^ ".json")
    (Json.to_string json);
  flush stdout;
  ok

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> run_micro (); List.map fst records
    | names -> names
  in
  match List.filter (fun n -> not (List.mem_assoc n records)) names with
  | _ :: _ as unknown ->
    Printf.eprintf "bench: unknown record %s; known records: %s\n"
      (String.concat ", " unknown)
      (String.concat " " (List.map fst records));
    exit 2
  | [] -> (
    match List.filter (fun n -> not (write_record n)) names with
    | [] -> ()
    | failed ->
      Printf.eprintf "bench: verdict false in %s\n" (String.concat ", " failed);
      exit 1)
