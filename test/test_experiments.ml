(* End-to-end tests: short versions of the paper's experiments must
   show the published shape, and whole runs must be deterministic. *)

open Engine
open Experiments

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Table 1 shape --- *)

let table1_shape () =
  let rows = Table1.run () in
  let find name =
    List.find (fun (r : Table1.row) -> r.Table1.bench = name) rows
  in
  let trap = find "trap" and prot1 = find "(un)prot1" in
  let prot100 = find "(un)prot100" and appel1 = find "appel1" in
  let appel2 = find "appel2" and dirty = find "dirty" in
  (* Nemesis beats the monolithic path on the fault benchmarks. *)
  checkb "trap faster than OSF1" true
    (trap.Table1.nemesis_us < Option.get trap.Table1.osf1_us);
  checkb "appel1 faster than OSF1" true
    (appel1.Table1.nemesis_us < Option.get appel1.Table1.osf1_us);
  checkb "appel2 faster than OSF1" true
    (appel2.Table1.nemesis_us < Option.get appel2.Table1.osf1_us);
  (* The pdom route is O(1): the same cost for 1 and 100 pages. *)
  let pd1 = Option.get prot1.Table1.nemesis_pdom_us in
  let pd100 = Option.get prot100.Table1.nemesis_pdom_us in
  checkb "pdom protect is O(1)" true (Float.abs (pd1 -. pd100) < 0.05);
  (* The page-table route is O(pages). *)
  checkb "pt protect grows with range" true
    (prot100.Table1.nemesis_us > 10.0 *. prot1.Table1.nemesis_us);
  (* dirty is sub-microsecond. *)
  checkb "dirty cheap" true (dirty.Table1.nemesis_us < 1.0);
  (* Within the right ballpark of the paper's measurements. *)
  checkb "trap within 2x of paper" true
    (trap.Table1.nemesis_us > trap.Table1.nemesis_paper_us /. 2.0
     && trap.Table1.nemesis_us < trap.Table1.nemesis_paper_us *. 2.0)

(* --- Figures 7 and 8 (short runs) --- *)

(* Each run is deterministic, so every test case shares one run per
   mode: paging in for Fig. 7, paging out for Fig. 8. *)
let fig7 = lazy (Paging_fig.run ~duration:(Time.sec 170) ())

let fig8 =
  lazy
    (Paging_fig.run ~mode:Workload.Paging_app.Paging_out
       ~duration:(Time.sec 170) ())

let fig7_ratios () =
  let r = Lazy.force fig7 in
  (match r.Paging_fig.ratios with
  | [ one; two; four ] ->
    Alcotest.(check (float 1e-9)) "base" 1.0 one;
    checkb "2x within 15%" true (two > 1.7 && two < 2.3);
    checkb "4x within 15%" true (four > 3.4 && four < 4.6)
  | _ -> Alcotest.fail "expected three apps");
  (* Laxity lines never exceed l = 10 ms. *)
  List.iter
    (fun (a : Paging_fig.app_report) ->
      checkb "max lax <= 10ms" true (a.Paging_fig.max_lax_ms <= 10.0);
      checkb "period allocations happened" true (a.Paging_fig.allocations > 300))
    r.Paging_fig.apps

let fig7_reads_cheap () =
  let r = Lazy.force fig7 in
  (* Paging-in transactions ride the drive cache: mean well under the
     ~11 ms mechanical cost (the two bigger-share clients stream; the
     10% client loses its rotational position more often). *)
  (match List.rev r.Paging_fig.apps with
  | biggest :: _ ->
    checkb "cached reads ~1-2ms" true (biggest.Paging_fig.mean_txn_ms < 3.0)
  | [] -> Alcotest.fail "no apps")

let fig8_writes_slow_but_proportional () =
  let r = Lazy.force fig8 in
  (match r.Paging_fig.ratios with
  | [ _; two; four ] ->
    checkb "2x" true (two > 1.6 && two < 2.4);
    checkb "4x" true (four > 3.2 && four < 4.8)
  | _ -> Alcotest.fail "expected three apps");
  List.iter
    (fun (a : Paging_fig.app_report) ->
      checkb "write txns ~10ms" true
        (a.Paging_fig.mean_txn_ms > 8.0 && a.Paging_fig.mean_txn_ms < 14.0);
      check "no page-ins when paging out" 0 a.Paging_fig.page_ins)
    r.Paging_fig.apps

let fig8_slower_than_fig7 () =
  let r7 = Lazy.force fig7 and r8 = Lazy.force fig8 in
  List.iter2
    (fun (a7 : Paging_fig.app_report) (a8 : Paging_fig.app_report) ->
      checkb "paging out much slower" true
        (a8.Paging_fig.sustained_mbit < a7.Paging_fig.sustained_mbit /. 3.0))
    r7.Paging_fig.apps r8.Paging_fig.apps

(* --- Figure 9 (short run) --- *)

let fig9_isolation () =
  let r = Fig9.run ~duration:(Time.sec 60) () in
  checkb "isolation within 3%" true (r.Fig9.isolation_error < 0.03);
  checkb "fs rate sane" true
    (r.Fig9.alone_mbit > 10.0 && r.Fig9.alone_mbit < 100.0)

(* --- Crosstalk (short run) --- *)

let crosstalk_direction () =
  let r = Crosstalk.run ~duration:(Time.sec 90) () in
  let self = r.Crosstalk.self_paging and ext = r.Crosstalk.external_pager in
  checkb "self-paging latency much lower" true
    (self.Crosstalk.light_latency.Crosstalk.p95_ms
     < ext.Crosstalk.light_latency.Crosstalk.p95_ms /. 3.0);
  checkb "pager burned its own CPU" true (ext.Crosstalk.pager_cpu_ms > 1.0);
  Alcotest.(check (float 0.0)) "no pager CPU under self-paging" 0.0
    self.Crosstalk.pager_cpu_ms

(* --- Determinism --- *)

let deterministic_runs () =
  let run () =
    let r = Paging_fig.run ~duration:(Time.sec 60) () in
    List.map
      (fun (a : Paging_fig.app_report) ->
        (a.Paging_fig.txns, a.Paging_fig.page_ins, a.Paging_fig.page_outs))
      r.Paging_fig.apps
  in
  let a = run () and b = run () in
  Alcotest.(check (list (triple int int int))) "identical runs" a b

let seed_robustness () =
  (* The 1:2:4 shape is a property of the system, not of one lucky
     seed. *)
  List.iter
    (fun seed ->
      let r = Paging_fig.run ~duration:(Time.sec 170) ~seed () in
      match r.Paging_fig.ratios with
      | [ _; two; four ] ->
        checkb (Printf.sprintf "seed %d: 2x" seed) true (two > 1.7 && two < 2.3);
        checkb (Printf.sprintf "seed %d: 4x" seed) true (four > 3.4 && four < 4.6)
      | _ -> Alcotest.fail "expected three apps")
    [ 7; 1234; 999983 ]

(* --- Ablation direction checks (short) --- *)

let laxity_matters () =
  let r = Ablations.run_laxity ~duration:(Time.sec 60) () in
  List.iter2
    (fun (_, _, txns_on) (_, _, txns_off) ->
      checkb "laxity multiplies throughput" true (txns_on > 2 * txns_off))
    r.Ablations.with_laxity r.Ablations.without_laxity;
  (* Without laxity: roughly one transaction per 250 ms period. *)
  List.iter
    (fun (_, _, txns) -> checkb "~1 txn/period" true (txns <= 60 * 4 + 20))
    r.Ablations.without_laxity

let rollover_matters () =
  let r = Ablations.run_rollover ~duration:(Time.sec 60) () in
  checkb "rollover keeps share at guarantee" true
    (r.Ablations.with_rollover_share < 0.115);
  checkb "no-carry overshoots" true
    (r.Ablations.without_rollover_share > r.Ablations.with_rollover_share +. 0.01)

let guarded_pt_slower () =
  let r = Ablations.run_pt () in
  checkb "guarded dirty ~3x slower" true
    (r.Ablations.dirty_ratio > 1.8 && r.Ablations.dirty_ratio < 5.0)

let revocation_protocol () =
  let r = Ablations.run_revoke () in
  checkb "transparent rounds" true (r.Ablations.transparent_count > 0);
  checkb "intrusive rounds" true (r.Ablations.intrusive_count > 0);
  checkb "cleaning takes real time" true (r.Ablations.intrusive_latency_ms > 1.0);
  checkb "uncooperative domain killed" true r.Ablations.uncooperative_killed;
  checkb "requester satisfied anyway" true r.Ablations.killed_requester_satisfied

let suite =
  [ ( "experiments.table1",
      [ Alcotest.test_case "shape vs OSF1 and paper" `Slow table1_shape ] );
    ( "experiments.fig7",
      [ Alcotest.test_case "1:2:4 progress ratios" `Slow fig7_ratios;
        Alcotest.test_case "cached sequential reads" `Slow fig7_reads_cheap ] );
    ( "experiments.fig8",
      [ Alcotest.test_case "~10ms writes, proportional" `Slow
          fig8_writes_slow_but_proportional;
        Alcotest.test_case "paging out slower than in" `Slow
          fig8_slower_than_fig7 ] );
    ( "experiments.fig9",
      [ Alcotest.test_case "file-system isolation" `Slow fig9_isolation ] );
    ( "experiments.crosstalk",
      [ Alcotest.test_case "external pager crosstalk measured" `Slow
          crosstalk_direction ] );
    ( "experiments.determinism",
      [ Alcotest.test_case "same seed, same run" `Slow deterministic_runs;
        Alcotest.test_case "shape holds across seeds" `Slow seed_robustness ] );
    ( "experiments.ablations",
      [ Alcotest.test_case "laxity fixes short blocks" `Slow laxity_matters;
        Alcotest.test_case "rollover bounds overrun" `Slow rollover_matters;
        Alcotest.test_case "guarded pt slower" `Slow guarded_pt_slower;
        Alcotest.test_case "revocation protocol outcomes" `Slow
          revocation_protocol ] ) ]
