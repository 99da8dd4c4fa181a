open Engine
open Hw
open Core

type row = {
  bench : string;
  osf1_us : float option;
  osf1_paper_us : float option;
  nemesis_us : float;
  nemesis_pdom_us : float option;
  nemesis_paper_us : float;
  nemesis_paper_pdom_us : float option;
}

let iterations = 200

(* A driver that backs pages from an explicit pool handed to it; used
   as scaffolding by several micro-benchmarks. *)
let pool_driver env pool =
  let map_from_pool (fault : Fault.t) =
    match !pool with
    | pfn :: rest ->
      pool := rest;
      Stretch_driver.map_page env fault.Fault.va ~pfn;
      Stretch_driver.Success
    | [] -> Stretch_driver.Failure "bench pool empty"
  in
  { Stretch_driver.name = "bench-pool";
    bind = (fun _ -> ());
    fast = map_from_pool;
    full = map_from_pool;
    relinquish = (fun ~want:_ -> 0);
    resident_pages = (fun () -> 0);
    free_frames = (fun () -> List.length !pool) }

(* --- dirty: examine a random PTE's dirty bit, user level. --- *)

(* Setup failwiths (here and in the other benches): a bench that
   cannot build its world has no number to report, so construction
   errors abort the run. Name resolution, by contrast, goes through
   the registry with typed errors. *)
let bench_dirty ~page_table () =
  let sys = Harness.fresh_system ~page_table () in
  let d = Harness.bench_domain sys ~name:"dirty" () in
  let stretch =
    match System.alloc_stretch d ~bytes:(100 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  (match System.bind_physical d ~prealloc:100 stretch with
  | Ok _ -> ()
  | Error e -> failwith (System.error_message e));
  let dom = d.System.dom in
  Harness.run_in_sim sys (fun () ->
      (* Touch every page (half with writes so some dirty bits differ). *)
      for i = 0 to 99 do
        Domains.access dom
          (Stretch.page_base stretch i)
          (if i mod 2 = 0 then `Write else `Read)
      done);
  let mmu = System.mmu sys in
  let cost = Mmu.cost mmu in
  let rng = Rng.create ~seed:7 in
  let samples =
    List.init iterations (fun _ ->
        let i = Rng.int rng 100 in
        let vpn = Addr.vpn_of_vaddr (Stretch.page_base stretch i) in
        let pte = Mmu.lookup mmu ~vpn in
        ignore (Pte.dirty pte);
        Mmu.lookup_cost mmu ~vpn + cost.Cost.reg_op)
  in
  Harness.mean_span samples

(* --- (un)protect a range via the page tables or via a pdom. --- *)

let bench_prot ~page_table ~npages () =
  let sys = Harness.fresh_system ~page_table () in
  let d = Harness.bench_domain sys ~name:"prot" () in
  let stretch =
    match System.alloc_stretch d ~bytes:(npages * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pdom = Domains.pdom d.System.dom in
  let translation = System.translation sys in
  let protected_ = Rights.{ r = false; w = false; x = false; m = true } in
  let spans_pt =
    List.init iterations (fun i ->
        let rights = if i mod 2 = 0 then protected_ else Rights.rw_meta in
        match Stretch.set_rights_pt stretch ~caller:pdom translation rights with
        | Ok span -> span
        | Error e -> failwith (Format.asprintf "%a" Translation.pp_error e))
  in
  let spans_pdom =
    List.init iterations (fun i ->
        let rights = if i mod 2 = 0 then protected_ else Rights.rw_meta in
        match Stretch.set_rights_pdom stretch ~caller:pdom ~target:pdom rights with
        | Ok span -> span
        | Error e -> failwith (Format.asprintf "%a" Translation.pp_error e))
  in
  (Harness.mean_span spans_pt, Harness.mean_span spans_pdom)

(* --- trap: user-level page-fault round trip. --- *)

let bench_trap ~page_table () =
  let sys = Harness.fresh_system ~page_table () in
  let d = Harness.bench_domain sys ~name:"trap" () in
  let stretch =
    match System.alloc_stretch d ~bytes:Addr.page_size () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pool = ref [] in
  Mm_entry.bind d.System.mm stretch (pool_driver d.System.env pool);
  let dom = d.System.dom in
  let sim = System.sim sys in
  Harness.run_in_sim sys (fun () ->
      (match Frames.alloc (System.frames sys) d.System.frames_client with
      | Some pfn -> pool := [ pfn ]
      | None -> failwith "no frame");
      let va = Stretch.page_base stretch 0 in
      let samples = ref [] in
      for _ = 1 to iterations do
        let t0 = Sim.now sim in
        Domains.access dom va `Read;
        samples := Time.diff (Sim.now sim) t0 :: !samples;
        (* Reset: unmap and return the frame to the pool. *)
        let pte = Stretch_driver.unmap_page d.System.env va in
        pool := [ Pte.pfn pte ]
      done;
      Harness.mean_span !samples)

(* --- appel1: prot1 + trap + unprot, via protection domains. --- *)

let bench_appel1 ~page_table () =
  let sys = Harness.fresh_system ~page_table () in
  let d = Harness.bench_domain sys ~name:"appel1" () in
  let n = 100 in
  let stretches =
    Array.init n (fun _ ->
        match System.alloc_stretch d ~bytes:Addr.page_size () with
        | Ok s -> s
        | Error e -> failwith e)
  in
  let pdom = Domains.pdom d.System.dom in
  let by_sid = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace by_sid s.Stretch.sid s) stretches;
  let meta_only = Rights.{ r = false; w = false; x = false; m = true } in
  let last_unprotected = ref None in
  (* The paper: a standard stretch driver with the access-violation
     fault type overridden by a custom handler. *)
  let handler (fault : Fault.t) =
    match fault.Fault.kind with
    | Mmu.Access_violation ->
      let s = Hashtbl.find by_sid (Option.get fault.Fault.sid) in
      (match Stretch.set_rights_pdom s ~caller:pdom ~target:pdom Rights.rw_meta with
      | Ok span -> d.System.env.Stretch_driver.consume_cpu span
      | Error _ -> failwith "unprot failed");
      (match !last_unprotected with
      | Some prev when prev != s ->
        (match
           Stretch.set_rights_pdom prev ~caller:pdom ~target:pdom meta_only
         with
        | Ok span -> d.System.env.Stretch_driver.consume_cpu span
        | Error _ -> failwith "prot failed")
      | _ -> ());
      last_unprotected := Some s;
      Stretch_driver.Success
    | _ -> Stretch_driver.Failure "unexpected fault kind"
  in
  let driver =
    { Stretch_driver.name = "appel1";
      bind = (fun _ -> ());
      fast = handler;
      full = handler;
      relinquish = (fun ~want:_ -> 0);
      resident_pages = (fun () -> 0);
      free_frames = (fun () -> 0) }
  in
  Array.iter (fun s -> Mm_entry.bind d.System.mm s driver) stretches;
  let dom = d.System.dom in
  let sim = System.sim sys in
  Harness.run_in_sim sys (fun () ->
      (* Map every page once, then protect everything (keep meta). *)
      Array.iter
        (fun s ->
          (match Frames.alloc (System.frames sys) d.System.frames_client with
          | Some pfn -> Stretch_driver.map_page d.System.env s.Stretch.base ~pfn
          | None -> failwith "no frame");
          match
            Stretch.set_rights_pdom s ~caller:pdom ~target:pdom meta_only
          with
          | Ok _ -> ()
          | Error _ -> failwith "initial protect failed")
        stretches;
      let rng = Rng.create ~seed:11 in
      let samples = ref [] in
      for _ = 1 to iterations do
        let s = stretches.(Rng.int rng n) in
        let skip =
          match !last_unprotected with Some p -> p == s | None -> false
        in
        if not skip then begin
          let t0 = Sim.now sim in
          Domains.access dom s.Stretch.base `Read;
          samples := Time.diff (Sim.now sim) t0 :: !samples
        end
      done;
      Harness.mean_span !samples)

(* --- appel2: protN + trap + unprot (unmap/map variant). --- *)

let bench_appel2 ~page_table () =
  let sys = Harness.fresh_system ~page_table () in
  let d = Harness.bench_domain sys ~name:"appel2" () in
  let n = 100 in
  let stretch =
    match System.alloc_stretch d ~bytes:(n * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let pfns = Array.make n (-1) in
  let handler (fault : Fault.t) =
    match fault.Fault.kind with
    | Mmu.Page_fault ->
      let page = Stretch.page_index stretch fault.Fault.va in
      Stretch_driver.map_page d.System.env fault.Fault.va ~pfn:pfns.(page);
      Stretch_driver.Success
    | _ -> Stretch_driver.Failure "unexpected fault kind"
  in
  let driver =
    { Stretch_driver.name = "appel2";
      bind = (fun _ -> ());
      fast = handler;
      full = handler;
      relinquish = (fun ~want:_ -> 0);
      resident_pages = (fun () -> 0);
      free_frames = (fun () -> 0) }
  in
  Mm_entry.bind d.System.mm stretch driver;
  let dom = d.System.dom in
  let sim = System.sim sys in
  Harness.run_in_sim sys (fun () ->
      for i = 0 to n - 1 do
        match Frames.alloc (System.frames sys) d.System.frames_client with
        | Some pfn ->
          pfns.(i) <- pfn;
          Stretch_driver.map_page d.System.env (Stretch.page_base stretch i)
            ~pfn
        | None -> failwith "no frame"
      done;
      let rng = Rng.create ~seed:13 in
      let rounds = 5 in
      let total = ref 0 in
      for _ = 1 to rounds do
        let t0 = Sim.now sim in
        (* "Protect" all pages: the stretch-granularity protection model
           makes us unmap them instead (remembering the frames). *)
        for i = 0 to n - 1 do
          let pte =
            Stretch_driver.unmap_page d.System.env (Stretch.page_base stretch i)
          in
          pfns.(i) <- Pte.pfn pte
        done;
        (* Visit every page in random order. *)
        let order = Array.init n (fun i -> i) in
        for i = n - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        done;
        Array.iter
          (fun i -> Domains.access dom (Stretch.page_base stretch i) `Read)
          order;
        total := !total + Time.diff (Sim.now sim) t0
      done;
      float_of_int !total /. float_of_int (rounds * n) /. 1e3)

let run ?(page_table = `Linear) () =
  let p = Baseline.Unix_vm.osf1 in
  let dirty_us = bench_dirty ~page_table () in
  let prot1_pt, prot1_pd = bench_prot ~page_table ~npages:1 () in
  let prot100_pt, prot100_pd = bench_prot ~page_table ~npages:100 () in
  let trap_us = bench_trap ~page_table () in
  let appel1_us = bench_appel1 ~page_table () in
  let appel2_us = bench_appel2 ~page_table () in
  let us span = float_of_int span /. 1e3 in
  [ { bench = "dirty";
      osf1_us = Option.map us (Baseline.Unix_vm.dirty p);
      osf1_paper_us = None;
      nemesis_us = dirty_us; nemesis_pdom_us = None;
      nemesis_paper_us = 0.15; nemesis_paper_pdom_us = None };
    { bench = "(un)prot1";
      osf1_us = Some (us (Baseline.Unix_vm.protect_pages p ~n:1 ~alternating:true));
      osf1_paper_us = Some 3.36;
      nemesis_us = prot1_pt; nemesis_pdom_us = Some prot1_pd;
      nemesis_paper_us = 0.42; nemesis_paper_pdom_us = Some 0.40 };
    { bench = "(un)prot100";
      osf1_us = Some (us (Baseline.Unix_vm.protect_pages p ~n:100 ~alternating:false));
      osf1_paper_us = Some 5.14;
      nemesis_us = prot100_pt; nemesis_pdom_us = Some prot100_pd;
      nemesis_paper_us = 10.78; nemesis_paper_pdom_us = Some 0.30 };
    { bench = "trap";
      osf1_us = Some (us (Baseline.Unix_vm.trap p));
      osf1_paper_us = Some 10.33;
      nemesis_us = trap_us; nemesis_pdom_us = None;
      nemesis_paper_us = 4.20; nemesis_paper_pdom_us = None };
    { bench = "appel1";
      osf1_us = Some (us (Baseline.Unix_vm.appel1 p));
      osf1_paper_us = Some 24.08;
      nemesis_us = appel1_us; nemesis_pdom_us = None;
      nemesis_paper_us = 5.33; nemesis_paper_pdom_us = None };
    { bench = "appel2";
      osf1_us = Some (us (Baseline.Unix_vm.appel2_per_fault p));
      osf1_paper_us = Some 19.12;
      nemesis_us = appel2_us; nemesis_pdom_us = None;
      nemesis_paper_us = 9.75; nemesis_paper_pdom_us = None } ]

let print rows =
  Report.heading
    "Table 1: comparative micro-benchmarks (microseconds; [..] = pdom variant)";
  Report.table
    ~header:
      [ "bench"; "OSF1(model)"; "OSF1(paper)"; "Nemesis(ours)";
        "Nemesis[pdom]"; "paper"; "paper[pdom]" ]
    (List.map
       (fun r ->
         [ r.bench;
           Report.fopt r.osf1_us;
           Report.fopt r.osf1_paper_us;
           Report.f2 r.nemesis_us;
           Report.fopt r.nemesis_pdom_us;
           Report.f2 r.nemesis_paper_us;
           Report.fopt r.nemesis_paper_pdom_us ])
       rows);
  print_newline ();
  print_endline
    "Shape checks: pdom protect is O(1) vs O(pages) page-table protect;";
  print_endline
    "Nemesis trap/appel paths beat the monolithic signal path by 2-4x."
