open Engine
open Core
open Workload

type app_report = {
  app_name : string;
  share : float;
  sustained_mbit : float;
  series : (Time.t * float) list;
  txns : int;
  mean_txn_ms : float;
  lax_total_ms : float;
  max_lax_ms : float;
  allocations : int;
  page_ins : int;
  page_outs : int;
}

type result = {
  mode : Paging_app.mode;
  apps : app_report list;
  ratios : float list;
  trace_window : (Time.t * Usbs.Usd.event) list;
  window_start : Time.t;
}

let ms_of span = float_of_int span /. 1e6

let summarise_client trace name =
  let txns = ref 0 and txn_time = ref 0 in
  let lax_total = ref 0 and lax_max = ref 0 in
  let allocs = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Txn { client; dur; _ } when client = name ->
        incr txns;
        txn_time := !txn_time + dur
      | Usbs.Usd.Lax { client; dur } when client = name ->
        lax_total := !lax_total + dur;
        if dur > !lax_max then lax_max := dur
      | Usbs.Usd.Alloc { client } when client = name -> incr allocs
      | _ -> ())
    trace;
  ( !txns,
    (if !txns = 0 then nan else ms_of (!txn_time / !txns)),
    ms_of !lax_total,
    ms_of !lax_max,
    !allocs )

let run ?(mode = Paging_app.Paging_in) ?(duration = Time.sec 240)
    ?(laxity = Time.ms 10) ?(seed = 42) () =
  let sys = Harness.fresh_system ~seed () in
  let apps =
    List.map
      (fun slice_ms ->
        let name = Printf.sprintf "app%d" (slice_ms * 100 / 250) in
        let qos =
          Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms slice_ms)
            ~laxity ()
        in
        match Paging_app.start sys ~name ~mode ~qos () with
        | Ok a -> (name, slice_ms, a)
        (* Setup failwith: the figure's fixed app fleet is sized to
           admit by construction. *)
        | Error e -> failwith (name ^ ": " ^ e))
      [ 25; 50; 100 ]
  in
  System.run sys ~until:duration;
  let trace = Usbs.Usd.trace (System.usd sys) in
  let reports =
    List.map
      (fun (name, slice_ms, a) ->
        let swap_name = name ^ ".swap" in
        let txns, mean_txn, lax_total, lax_max, allocs =
          summarise_client trace swap_name
        in
        let info = Paging_app.paging_info a in
        { app_name = name;
          share = float_of_int slice_ms /. 250.0;
          sustained_mbit = Paging_app.sustained_mbit a;
          series = Stats.Series.to_list (Sampler.series (Paging_app.sampler a));
          txns;
          mean_txn_ms = mean_txn;
          lax_total_ms = lax_total;
          max_lax_ms = lax_max;
          allocations = allocs;
          page_ins = info.Sd_paged.page_ins;
          page_outs = info.Sd_paged.page_outs })
      apps
  in
  let base =
    match reports with
    | r :: _ -> r.sustained_mbit
    | [] -> nan
  in
  let ratios = List.map (fun r -> r.sustained_mbit /. base) reports in
  (* A one-second window from late in the run (steady state). *)
  let window_start = duration - Time.sec 5 in
  let trace_window = Trace.between trace window_start (window_start + Time.sec 1) in
  { mode; apps = reports; ratios; trace_window; window_start }

let mode_name = function
  | Paging_app.Paging_in -> "Paging In (Figure 7)"
  | Paging_app.Paging_out -> "Paging Out (Figure 8)"

let print r =
  Report.heading (mode_name r.mode);
  Report.table
    ~header:
      [ "app"; "share"; "Mbit/s"; "ratio"; "txns"; "mean txn ms";
        "lax total ms"; "max lax ms"; "allocs"; "page-ins"; "page-outs" ]
    (List.map2
       (fun a ratio ->
         [ a.app_name;
           Printf.sprintf "%.0f%%" (a.share *. 100.0);
           Report.f2 a.sustained_mbit;
           Report.f2 ratio;
           string_of_int a.txns;
           Report.f2 a.mean_txn_ms;
           Report.f1 a.lax_total_ms;
           Report.f2 a.max_lax_ms;
           string_of_int a.allocations;
           string_of_int a.page_ins;
           string_of_int a.page_outs ])
       r.apps r.ratios);
  print_newline ();
  (match r.mode with
  | Paging_app.Paging_in ->
    print_endline
      "Paper: progress ratio very close to 4:2:1; transactions all roughly";
    print_endline "the same duration (sequential reads hit the drive cache)."
  | Paging_app.Paging_out ->
    print_endline
      "Paper: same proportions but much lower throughput; almost every";
    print_endline
      "transaction ~10ms, some with an extra rotational delay.")

let print_series r =
  Report.heading
    (Printf.sprintf "%s: sustained bandwidth vs time" (mode_name r.mode));
  Report.chart ~unit_label:"seconds"
    (List.map
       (fun a ->
         ( a.app_name,
           List.map (fun (t, v) -> (Time.to_sec t, v)) a.series ))
       r.apps)

(* ASCII scheduler trace: 1 s window, 10 ms per column; one row per
   client. '#': performing a transaction, '.': lax (holding the disk
   with nothing pending), '|': new allocation at a period boundary. *)
let print_trace r =
  Report.heading
    (Printf.sprintf "USD scheduler trace: 1s window starting at t=%.0fs \
                     ('#' txn, '.' lax, '|' alloc)"
       (Time.to_sec r.window_start));
  let columns = 100 in
  let col_span = Time.sec 1 / columns in
  let clients =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, ev) ->
           match ev with
           | Usbs.Usd.Txn { client; _ } | Usbs.Usd.Lax { client; _ }
           | Usbs.Usd.Alloc { client } | Usbs.Usd.Slack { client; _ }
           | Usbs.Usd.Txn_error { client; _ } ->
             Some client)
         r.trace_window)
  in
  List.iter
    (fun client ->
      let row = Bytes.make columns ' ' in
      let mark_range t dur ch =
        (* Events are stamped at completion; paint backwards. *)
        let start = t - dur - r.window_start in
        let stop = t - r.window_start in
        let c0 = max 0 (start / col_span) in
        let c1 = min (columns - 1) (stop / col_span) in
        for c = c0 to c1 do
          if Bytes.get row c = ' ' || ch = '#' then Bytes.set row c ch
        done
      in
      List.iter
        (fun (t, ev) ->
          match ev with
          | Usbs.Usd.Txn { client = c; dur; _ } when c = client ->
            mark_range t dur '#'
          | Usbs.Usd.Slack { client = c; dur; _ } when c = client ->
            mark_range t dur '#'
          | Usbs.Usd.Lax { client = c; dur } when c = client ->
            mark_range t dur '.'
          | Usbs.Usd.Alloc { client = c } when c = client ->
            let col = min (columns - 1) (max 0 ((t - r.window_start) / col_span)) in
            Bytes.set row col '|'
          | _ -> ())
        r.trace_window;
      Printf.printf "%-12s %s\n" client (Bytes.to_string row))
    clients
