(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: real wall-clock cost of the
   implementation's hot operations (the data structures behind Table 1
   and the simulation substrate). These demonstrate the algorithmic
   shapes (O(1) pdom protect vs O(n) page-table protect, linear vs
   guarded table walks) with measured nanoseconds rather than model
   constants.

   Part 2 — the paper-reproduction harness: regenerates Table 1 and
   Figures 7, 8 and 9 (plus the quantified Figure 2 crosstalk and the
   DESIGN.md ablations) in simulated time, printing paper-vs-measured
   rows. *)

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

let bench_edf_select =
  let edf = Sched.Edf.create () in
  for i = 1 to 10 do
    match
      Sched.Edf.admit edf
        ~name:(string_of_int i)
        ~period:(Time.ms (10 * i))
        ~slice:(Time.ms 1) ~now:Time.zero ()
    with
    | Ok _ -> ()
    | Error _ -> assert false
  done;
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

let run_bechamel () =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25)
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"micro" micro_tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Experiments.Report.heading
    "Micro-benchmarks (wall-clock, Bechamel OLS ns/op)";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> Printf.sprintf "%.1f" est
        | _ -> "n/a"
      in
      rows := [ name; ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Experiments.Report.table ~header:[ "operation"; "ns/op" ] rows;
  print_newline ();
  print_endline
    "Shape checks (wall-clock): guarded lookup costs several times the";
  print_endline
    "linear lookup; prot100-pt costs ~100x prot1-pt; prot-pdom is O(1).";
  flush stdout

(* --- Part 2: the paper's tables and figures ------------------------ *)

let run_experiments () =
  Experiments.Table1.print (Experiments.Table1.run ());
  flush stdout;
  let r7 = Experiments.Paging_fig.run ~duration:(Time.sec 240) () in
  Experiments.Paging_fig.print r7;
  Experiments.Paging_fig.print_series r7;
  Experiments.Paging_fig.print_trace r7;
  flush stdout;
  let r8 =
    Experiments.Paging_fig.run ~mode:Workload.Paging_app.Paging_out
      ~duration:(Time.sec 240) ()
  in
  Experiments.Paging_fig.print r8;
  Experiments.Paging_fig.print_series r8;
  Experiments.Paging_fig.print_trace r8;
  flush stdout;
  let r9 = Experiments.Fig9.run ~duration:(Time.sec 120) () in
  Experiments.Fig9.print r9;
  Experiments.Fig9.print_series r9;
  flush stdout;
  Experiments.Crosstalk.print
    (Experiments.Crosstalk.run ~duration:(Time.sec 180) ());
  flush stdout;
  Experiments.Net_iso.print_shares (Experiments.Net_iso.run_shares ());
  Experiments.Net_iso.print_kernel_crosstalk
    (Experiments.Net_iso.run_kernel_crosstalk ~duration:(Time.sec 60) ());
  flush stdout;
  Experiments.Ablations.print_laxity
    (Experiments.Ablations.run_laxity ~duration:(Time.sec 120) ());
  Experiments.Ablations.print_laxity_sweep
    (Experiments.Ablations.run_laxity_sweep ~duration:(Time.sec 120) ());
  Experiments.Ablations.print_rollover
    (Experiments.Ablations.run_rollover ~duration:(Time.sec 120) ());
  Experiments.Ablations.print_pt (Experiments.Ablations.run_pt ());
  Experiments.Ablations.print_slack
    (Experiments.Ablations.run_slack ~duration:(Time.sec 120) ());
  Experiments.Ablations.print_stream
    (Experiments.Ablations.run_stream ~duration:(Time.sec 170) ());
  Experiments.Ablations.print_revoke (Experiments.Ablations.run_revoke ());
  flush stdout

(* --- Part 3: the policy-compare figure ----------------------------- *)

(* Runs the paging figure once per (policy x pattern) cell and leaves a
   machine-readable record next to the text report, so policy
   regressions show up as a JSON diff. *)
let run_policy () =
  let r = Experiments.Policy_compare.run ~duration:(Time.sec 60) () in
  Experiments.Policy_compare.print r;
  flush stdout;
  let path = "BENCH_policy.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Policy_compare.to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 4: the chaos verdict ------------------------------------- *)

(* One seeded fault-injection run; the JSON record keeps the verdict
   (clean-domain isolation, recovery accounting, revocation outcome)
   diffable across revisions. *)
let run_chaos () =
  let r = Experiments.Chaos.run ~duration:(Time.sec 30) () in
  Experiments.Chaos.print r;
  flush stdout;
  let path = "BENCH_chaos.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Chaos.to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 5: the crash-recovery verdict ---------------------------- *)

(* Seeded crash/remount/restart rounds; the JSON record keeps the
   recovery accounting (records replayed, torn records quarantined,
   pages restored vs lost) diffable across revisions. *)
let run_crash () =
  let r = Experiments.Crash_recover.run () in
  Experiments.Crash_recover.print r;
  flush stdout;
  let path = "BENCH_crash.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Crash_recover.to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 5b: the remote-paging verdict ----------------------------- *)

(* Tiered vs disk-only backing, per access pattern, fault-free: the
   JSON record keeps throughput and fault-service latency side by
   side, with the headline verdict that the disaggregated tier beats
   the disk on the cacheable (hotspot) working set. *)
let run_remote () =
  let r = Experiments.Remote_page.bench ~duration:(Time.sec 30) () in
  Experiments.Remote_page.bench_print r;
  flush stdout;
  let path = "BENCH_remote.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Remote_page.bench_to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 5b': the failover verdict --------------------------------- *)

(* The hotspot workload against the disk, the healthy fleet and the
   fleet with a node wiped at T/2; the fault-latency histogram is split
   at the wipe so the post-wipe window can be compared against the same
   window of a healthy run. Headline verdict: losing a node costs at
   most 2x the healthy remote path and stays far from the disk —
   replication turns node loss into a latency event, not a cliff. *)
let run_failover () =
  let r = Experiments.Failover.bench ~duration:(Time.sec 30) () in
  Experiments.Failover.bench_print r;
  flush stdout;
  let path = "BENCH_failover.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Failover.bench_to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 5b'': the erasure verdict --------------------------------- *)

(* The hotspot workload against the disk, the 2-replica fleet, the
   healthy (4, 2) erasure stripe and the stripe with a node wiped at
   T/2. Headline verdict: parity reads cost at most 2x the replicated
   path, degraded reads stay at least 5x below the disk, and the
   stripe holds 1.5x the page's bytes where replication holds 2x. *)
let run_erasure () =
  let r = Experiments.Erasure.bench ~duration:(Time.sec 30) () in
  Experiments.Erasure.bench_print r;
  flush stdout;
  let path = "BENCH_erasure.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Experiments.Erasure.bench_to_json r));
  Printf.printf "wrote %s\n%!" path

(* --- Part 5c: the sharing / stacked-pager verdict ------------------- *)

(* The 32-tenant CoW fleet against its unshared control arm (same
   workload, no template sharing, no compressed tier). The JSON record
   keeps the resident-frame savings, the CoW-break latency and the
   compressed-tier hit economics diffable across revisions. Headline
   claims: sharing cuts resident frames at least 2x for the fleet, and
   a zram page-in is at least 10x cheaper than a disk page-in. *)
let run_share () =
  let open Experiments.Tenancy in
  let shared = run ~duration:(Time.sec 40) () in
  print shared;
  flush stdout;
  let control = run ~duration:(Time.sec 40) ~share:false ~zram:false () in
  print control;
  flush stdout;
  (* Unshared, each resident page needs its own frame — so the shared
     arm's pages-per-frame ratio IS the resident-frame reduction for
     the content the fleet holds. The control arm (no CoW, no zram,
     but the same workload, still sharing the text segment) gives the
     fleet-level quotient and the disk-only fault baseline. *)
  let savings = shared.frames_per_content in
  let fleet_quotient =
    shared.frames_per_content /. control.frames_per_content
  in
  let speedup = shared.zram_miss_mean_us /. shared.zram_hit_mean_us in
  let savings_ok = savings >= 2.0 in
  let speedup_ok = speedup >= 10.0 in
  Experiments.Report.heading "Sharing verdict";
  Printf.printf
    "resident-frame savings: %.1fx (%d resident pages on %d frames; \
     unshared the same content needs %d) — %s\n"
    savings shared.resident_pages
    (shared.tenant_frames + shared.shared_frames)
    shared.resident_pages
    (if savings_ok then "ok (>= 2x)" else "BELOW 2x");
  Printf.printf
    "fleet vs control:       %.2fx (shared %.2f vs control %.2f \
     pages/frame; control still shares the text segment)\n"
    fleet_quotient shared.frames_per_content control.frames_per_content;
  Printf.printf
    "zram page-in speedup:   %.0fx (hit %.1f us vs disk %.1f us) — %s\n"
    speedup shared.zram_hit_mean_us shared.zram_miss_mean_us
    (if speedup_ok then "ok (>= 10x)" else "BELOW 10x");
  Printf.printf "CoW break: mean %.1f us, p95 <= %.1f us over %d breaks\n"
    shared.break_mean_us shared.break_p95_us shared.cow_breaks;
  flush stdout;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"shared\": ";
  Buffer.add_string b (to_json shared);
  Buffer.add_string b ",\n  \"control\": ";
  Buffer.add_string b (to_json control);
  Buffer.add_string b
    (Printf.sprintf
       ",\n  \"frame_savings_x\": %.2f,\n  \"fleet_vs_control_x\": %.2f,\n  \
        \"zram_speedup_x\": %.1f,\n  \"ok\": %b\n}"
       savings fleet_quotient speedup
       (savings_ok && speedup_ok && ok shared && ok control));
  let path = "BENCH_share.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n%!" path

(* --- Part 6: the scale-out benches --------------------------------- *)

(* The hot paths the many-domain work rebuilt, measured against the
   seed's list shapes at 8/64/256 clients. The seed kept each frame
   stack as an [int list] (remove = filter, move-to-top = filter+cons)
   and picked the next EDF client by folding over the member list; both
   are rebuilt as O(1)/O(log n) structures, and these benches document
   the before/after shape: the baselines grow linearly from 8 to 256,
   the new paths must not. *)

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

let bench_fs_remove n =
  let fs = Frame_stack.create () in
  for pfn = 0 to n - 1 do
    Frame_stack.push fs pfn
  done;
  let i = ref 0 in
  Test.make ~name:(Printf.sprintf "frame_stack/remove+push n=%03d" n)
    (Staged.stage (fun () ->
         i := (!i + 97) mod n;
         ignore (Frame_stack.remove fs !i);
         Frame_stack.push fs !i))

let bench_fs_move n =
  let fs = Frame_stack.create () in
  for pfn = 0 to n - 1 do
    Frame_stack.push fs pfn
  done;
  let i = ref 0 in
  Test.make ~name:(Printf.sprintf "frame_stack/move-to-top n=%03d" n)
    (Staged.stage (fun () ->
         i := (!i + 97) mod n;
         Frame_stack.move_to_top fs !i))

let bench_fs_seed n =
  let fs = Seed_frame_stack.create () in
  for pfn = 0 to n - 1 do
    Seed_frame_stack.push fs pfn
  done;
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "frame_stack/seed-list remove+push n=%03d" n)
    (Staged.stage (fun () ->
         i := (!i + 97) mod n;
         Seed_frame_stack.remove fs !i;
         Seed_frame_stack.push fs !i))

let bench_fs_seed_move n =
  let fs = Seed_frame_stack.create () in
  for pfn = 0 to n - 1 do
    Seed_frame_stack.push fs pfn
  done;
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "frame_stack/seed-list move-to-top n=%03d" n)
    (Staged.stage (fun () ->
         i := (!i + 97) mod n;
         Seed_frame_stack.move_to_top fs !i))

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

let run_scale () =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25)
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"scale" scale_micro_tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Experiments.Report.heading
    "Scale micro-benchmarks (wall-clock, Bechamel OLS ns/op)";
  Experiments.Report.table ~header:[ "operation"; "ns/op" ]
    (List.map (fun (n, ns) -> [ n; Printf.sprintf "%.1f" ns ]) rows);
  print_newline ();
  print_endline
    "Shape checks (wall-clock): the seed-list baselines grow linearly";
  print_endline
    "from n=8 to n=256; the rebuilt frame-stack and heap EDF paths stay";
  print_endline
    "flat (O(1)) or near-flat (O(log n)), with three runnable clients as";
  print_endline "with all of them.";
  flush stdout;
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
  flush stdout;
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"micro_ns_per_op\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": %S, \"ns\": %s}%s\n" name
           (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n  \"end_to_end\": ";
  Buffer.add_string b (Experiments.Scale.to_json r);
  Buffer.add_string b ",\n  \"speed\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun s ->
            Printf.sprintf
              "    {\"domains\": %d, \"duration_s\": %.0f, \"events\": %d, \
               \"wall_ms\": %.1f, \"us_per_event\": %.3f, \
               \"words_per_event\": %.1f, \"ok\": %b}"
              s.sp_domains (Time.to_sec speed_duration) s.sp_events
              s.sp_wall_ms (us_per_event s)
              (words_per_event s) s.sp_ok)
          speed));
  Buffer.add_string b "\n  ]\n}";
  let path = "BENCH_scale.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n%!" path

let () =
  match Sys.argv with
  | [| _; "policy" |] -> run_policy ()
  | [| _; "chaos" |] -> run_chaos ()
  | [| _; "crash" |] -> run_crash ()
  | [| _; "remote" |] -> run_remote ()
  | [| _; "failover" |] -> run_failover ()
  | [| _; "erasure" |] -> run_erasure ()
  | [| _; "share" |] -> run_share ()
  | [| _; "scale" |] -> run_scale ()
  | _ ->
    run_bechamel ();
    run_experiments ();
    run_policy ();
    run_chaos ();
    run_crash ();
    run_remote ();
    run_failover ();
    run_erasure ();
    run_share ();
    run_scale ()
