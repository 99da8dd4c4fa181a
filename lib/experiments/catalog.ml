open Engine
open Cmdliner

let sec s = Time.sec s

(* --- file output --------------------------------------------------------- *)

let write_file path contents =
  match open_out path with
  | exception Sys_error msg ->
    Printf.eprintf "nemesis-sim: cannot write %s\n" msg;
    exit 1
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc contents;
        output_char oc '\n');
    Printf.printf "wrote %s\n" path

let write_csv path rows =
  write_file path
    (String.concat "\n"
       ("series,seconds,mbit_per_s"
       :: List.map
            (fun (series, t, v) -> Printf.sprintf "%s,%.3f,%.6f" series t v)
            rows))

let paging_csv (r : Paging_fig.result) =
  List.concat_map
    (fun (a : Paging_fig.app_report) ->
      List.map
        (fun (t, v) -> (a.Paging_fig.app_name, Time.to_sec t, v))
        a.Paging_fig.series)
    r.Paging_fig.apps

(* --- shared terms ------------------------------------------------------ *)

let duration default =
  Arg.(
    value & opt int default
    & info [ "d"; "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated duration in seconds.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Simulation and fault-injection seed.")

let count ?(ints = Arg.int) name ~default doc =
  Arg.(value & opt ints default & info [ name ] ~docv:"N" ~doc)

(* An integer that fails at parse time, naming its flag, below [lo]. *)
let at_least lo =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        if n >= lo then Ok n
        else Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let val_opt name ~docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let json doc = val_opt "json" ~docv:"FILE" doc

let csv =
  val_opt "csv" ~docv:"FILE" "Also write the bandwidth series as CSV to FILE."

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable instrumentation and write the metrics registry (counters, \
           gauges, latency histograms) as JSON to $(docv).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable instrumentation and write finished spans as CSV to $(docv).")

(* Either observability flag switches instrumentation on for the whole
   run; experiments that execute several configurations reset the
   collectors between them, so the dumped files cover the final
   configuration (the stdout report covers each). A false verdict
   exits 1 before the files are written. *)
let with_obs metrics trace run =
  let instrument = metrics <> None || trace <> None in
  if instrument then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  if not (run ()) then exit 1;
  Option.iter
    (fun path -> write_file path (Json.to_string (Obs.Metrics.to_json ())))
    metrics;
  Option.iter (fun path -> write_file path (Obs.Span.to_csv ())) trace

(* A subcommand: [term] parses its flags into the run, which returns
   the verdict. *)
let cmd name doc ~modules term =
  ( Cmd.v (Cmd.info name ~doc) Term.(const with_obs $ metrics $ trace $ term),
    modules )

(* --- the ablations ------------------------------------------------------ *)

(* In run order; each takes the requested duration in seconds and
   applies its own floor or ceiling. *)
let ablations =
  [ (* the short-block problem: USD laxity on vs off *)
    ("laxity", fun d ->
      let r = Ablations.run_laxity ~duration:(sec (min d 120)) () in
      Ablations.print_laxity r;
      Ablations.print_laxity_sweep r);
    (* slack rollover accounting on vs off *)
    ("rollover", fun d ->
      Ablations.print_rollover (Ablations.run_rollover ~duration:(sec d) ()));
    (* linear vs guarded page tables *)
    ("pt", fun _ -> Ablations.print_pt (Ablations.run_pt ()));
    (* slack-time distribution policies *)
    ("slack", fun d ->
      Ablations.print_slack (Ablations.run_slack ~duration:(sec d) ()));
    (* stream read-ahead on vs off *)
    ("stream", fun d ->
      Ablations.print_stream
        (Ablations.run_stream ~duration:(sec (max d 170)) ()));
    (* frame revocation protocol variants *)
    ("revoke", fun _ -> Ablations.print_revoke (Ablations.run_revoke ())) ]

let ablation_names = List.map fst ablations

(* --- the subcommands ---------------------------------------------------- *)

(* A verdict-checked experiment: print, optionally dump JSON, and
   return the acceptance verdict. *)
let verdict ~print ~to_json ~ok json r =
  print r;
  Option.iter (fun path -> write_file path (Json.to_string (to_json r))) json;
  ok r

(* The remote-tier subcommands: one scenario each, one runner. *)
let scenario name doc ~verdict_of sc =
  cmd name doc ~modules:[ "remote_tier" ]
    Term.(
      const (fun d seed json () ->
          verdict ~print:Harness.print_fleet_run
            ~to_json:Harness.fleet_run_json ~ok:Harness.fleet_ok json
            (Harness.run_fleet ~seed ~duration:(sec d) sc))
      $ duration 30 $ seed
      $ json
          (Printf.sprintf "Also write the %s verdict as JSON to FILE."
             verdict_of))

let fig name doc ?mode () =
  cmd name doc ~modules:[ "paging_fig" ]
    Term.(
      const (fun d csv () ->
          let r = Paging_fig.run ?mode ~duration:(sec d) () in
          Paging_fig.print r;
          Paging_fig.print_series r;
          Paging_fig.print_trace r;
          Option.iter (fun path -> write_csv path (paging_csv r)) csv;
          true)
      $ duration 240 $ csv)

let policy_specs s =
  List.map
    (fun spec ->
      match Policy.Spec.of_string spec with
      | Ok p -> p
      | Error e ->
        Printf.eprintf "nemesis-sim: %s\n" e;
        exit 2)
    (String.split_on_char ',' s)

let commands =
  [ cmd "table1" "Comparative micro-benchmarks (Table 1)" ~modules:[ "table1" ]
      Term.(
        const (fun () ->
            Table1.print (Table1.run ());
            true));
    fig "fig7" "Paging in under disk guarantees (Figure 7)" ();
    fig "fig8" "Paging out under disk guarantees (Figure 8)"
      ~mode:Workload.Paging_app.Paging_out ();
    cmd "fig9" "File-system isolation (Figure 9)" ~modules:[ "fig9" ]
      Term.(
        const (fun d csv () ->
            let r = Fig9.run ~duration:(sec d) () in
            Fig9.print r;
            Fig9.print_series r;
            Option.iter
              (fun path ->
                let rows =
                  List.map
                    (fun (t, v) -> ("fs_alone", Time.to_sec t, v))
                    r.Fig9.alone_series
                  @ List.map
                      (fun (t, v) -> ("fs_contended", Time.to_sec t, v))
                      r.Fig9.contended_series
                in
                write_csv path rows)
              csv;
            true)
        $ duration 120 $ csv);
    cmd "crosstalk" "External pager vs self-paging (Figure 2, quantified)"
      ~modules:[ "crosstalk" ]
      Term.(
        const (fun d () ->
            Crosstalk.print (Crosstalk.run ~duration:(sec d) ());
            true)
        $ duration 180);
    cmd "netiso" "Network-link guarantees and cross-resource crosstalk"
      ~modules:[ "net_iso" ]
      Term.(
        const (fun d () ->
            Net_iso.print_shares
              (Net_iso.run_shares ~duration:(sec (min d 30)) ());
            Net_iso.print_kernel_crosstalk
              (Net_iso.run_kernel_crosstalk ~duration:(sec d) ());
            true)
        $ duration 60);
    cmd "policy-compare"
      "Paging figure per replacement/read-ahead/write-behind policy (paper \
       section 5: per-domain policy choice)"
      ~modules:[ "policy_compare" ]
      Term.(
        const (fun d json policies () ->
            let policies = Option.map policy_specs policies in
            verdict ~print:Policy_compare.print ~to_json:Policy_compare.to_json
              ~ok:Policy_compare.ok json
              (Policy_compare.run ~duration:(sec d) ?policies ()))
        $ duration 60
        $ json "Also write the comparison matrix as JSON to FILE."
        $ val_opt "policies" ~docv:"SPECS"
            "Comma-separated policy specs to compare (e.g. \
             fifo,fifo+ra8,clock,lru,wsclock:32,fifo+wb8); default: the \
             built-in presets.");
    cmd "ablate" "Design-choice ablations (DESIGN.md)" ~modules:[ "ablations" ]
      Term.(
        const (fun d names () ->
            List.iter (fun name -> List.assoc name ablations d) names;
            true)
        $ duration 120
        $ Arg.(
            value
            & pos_all (enum (List.map (fun n -> (n, n)) ablation_names))
                ablation_names
            & info [] ~docv:"NAME"
                ~doc:
                  ("Which ablations to run ("
                  ^ String.concat "|" ablation_names
                  ^ "); default all.")));
    cmd "chaos"
      "QoS firewalling under injected faults: bad bloks, media errors, stalls, \
       dropped notifications and revocation storms against one victim, with \
       two clean domains as the control group"
      ~modules:[ "chaos" ]
      Term.(
        const (fun d seed json () ->
            verdict ~print:Chaos.print ~to_json:Chaos.to_json ~ok:Chaos.ok json
              (Chaos.run ~seed ~duration:(sec d) ()))
        $ duration 30 $ seed
        $ json "Also write the chaos verdict as JSON to FILE.");
    cmd "crash-recover"
      "Crash consistency and restart: tear the victim's writes at seeded \
       points (data extent and intent journal), remount and replay the \
       journal, respawn the domain and restore its committed pages — with two \
       clean domains as the control group"
      ~modules:[ "crash_recover" ]
      Term.(
        const (fun seed rounds json () ->
            verdict ~print:Crash_recover.print ~to_json:Crash_recover.to_json
              ~ok:Crash_recover.ok json
              (Crash_recover.run ~seed ~rounds ()))
        $ seed
        $ count "rounds" ~default:4 "Crash/remount/restart rounds to run."
        $ json "Also write the recovery verdict as JSON to FILE.");
    scenario "remote"
      "Disaggregated memory: three tiered domains page through a \
       RAM-cache/remote-memory/disk backing store (a one-node fleet) over a \
       shared guaranteed link while three disk-only bystanders run beside \
       them; the second half drops and delays packets on that link and the \
       verdict demands zero bystander violations, balanced fleet books, the \
       fleet's drop count equal to the injector's and a byte-identical \
       same-seed rerun"
      ~verdict_of:"remote-paging" Remote_tier.remote;
    scenario "failover"
      "Replicated remote memory under node loss: three tiered domains page \
       through a 4-node fleet (2 replicas per page, rendezvous placement) \
       while three disk-only bystanders run beside them; mid-run one node is \
       wiped and another partitioned, and the verdict demands zero committed \
       pages lost, zero bystander violations, balanced fleet books, a \
       re-replicated wipe victim, a probed-back partition victim and a \
       byte-identical same-seed rerun"
      ~verdict_of:"failover" Remote_tier.failover;
    scenario "erasure"
      "Erasure-coded remote memory under double node loss: tiered domains \
       page through a six-node fleet striped k = 4 data + m = 2 parity shards \
       per page, run side by side with the 2-replica baseline; two nodes are \
       wiped mid-run, one node serves corrupt shards and a standby joins the \
       ring. The verdict demands zero committed pages lost, degraded reads \
       served from remote memory at least 50x faster than the disk floor, at \
       most 1.55x storage overhead, balanced shard books, honoured membership \
       change, clean bystanders and a byte-identical same-seed rerun"
      ~verdict_of:"erasure" Remote_tier.erasure;
    cmd "scale"
      "Many-domain scale-out: admit 128 self-paging domains under tight CPU, \
       disk and memory admission control, refuse the 129th with a typed \
       overcommit error, and assert zero QoS violations and balanced frame \
       books"
      ~modules:[ "scale" ]
      Term.(
        const (fun d seed domains json () ->
            verdict ~print:Scale.print ~to_json:Scale.to_json ~ok:Scale.ok json
              (Scale.run ~seed ~domains ~duration:(sec d) ()))
        $ duration 60 $ seed
        $ count "domains" ~ints:(at_least 1) ~default:128
            "Number of self-paging domains to admit."
        $ json "Also write the scale verdict as JSON to FILE.");
    cmd "tenancy"
      "Multi-tenancy over stacked pagers: freeze a template image, fork 32 \
       copy-on-write tenants over it (swap traffic through the \
       compressed-RAM tier), share a read-only text segment, kill half the \
       fleet mid-run, and assert one resident copy per shared page, balanced \
       reference books and untouched bystander QoS"
      ~modules:[ "tenancy" ]
      Term.(
        const (fun d seed tenants no_share no_zram json () ->
            verdict ~print:Tenancy.print ~to_json:Tenancy.to_json
              ~ok:Tenancy.ok json
              (Tenancy.run ~seed ~tenants ~duration:(sec d)
                 ~share:(not no_share) ~zram:(not no_zram) ()))
        $ duration 40 $ seed
        $ count "tenants" ~ints:(at_least 2) ~default:32
            "Number of CoW tenants to fork from the template."
        $ Arg.(
            value & flag
            & info [ "no-share" ]
                ~doc:"Control arm: fork the fleet without CoW sharing.")
        $ Arg.(
            value & flag
            & info [ "no-zram" ]
                ~doc:"Page tenants straight to disk (no compressed-RAM tier).")
        $ json "Also write the tenancy verdict as JSON to FILE.");
    cmd "all" "Run every table, figure and ablation" ~modules:[ "report" ]
      Term.(
        const (fun d () ->
            Table1.print (Table1.run ());
            let r7 = Paging_fig.run ~duration:(sec d) () in
            Paging_fig.print r7;
            Paging_fig.print_series r7;
            Paging_fig.print_trace r7;
            let r8 =
              Paging_fig.run ~mode:Workload.Paging_app.Paging_out
                ~duration:(sec d) ()
            in
            Paging_fig.print r8;
            Paging_fig.print_series r8;
            Paging_fig.print_trace r8;
            let r9 = Fig9.run ~duration:(sec (min d 120)) () in
            Fig9.print r9;
            Fig9.print_series r9;
            Crosstalk.print (Crosstalk.run ~duration:(sec (min d 180)) ());
            Net_iso.print_shares (Net_iso.run_shares ());
            Net_iso.print_kernel_crosstalk
              (Net_iso.run_kernel_crosstalk ~duration:(sec (min d 60)) ());
            List.iter (fun (_, run) -> run (min d 120)) ablations;
            Chaos.print (Chaos.run ~duration:(sec (min d 30)) ());
            Crash_recover.print (Crash_recover.run ());
            List.iter
              (fun sc ->
                Harness.print_fleet_run
                  (Harness.run_fleet ~seed:42 ~duration:(sec (min d 30)) sc))
              [ Remote_tier.remote; Remote_tier.failover ];
            Tenancy.print (Tenancy.run ~duration:(sec (min d 40)) ());
            true)
        $ duration 240) ]

(* --- lint ---------------------------------------------------------------- *)

(* Infrastructure modules no subcommand needs to claim. *)
let lint_infra = [ "catalog"; "harness"; "report" ]

let lint ~docs ~experiments_dir =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Every name the command line accepts must appear in the docs. *)
  let doc_text =
    String.concat "\n"
      (List.map
         (fun path ->
           match open_in path with
           | exception Sys_error msg ->
             err "lint-names: cannot read %s" msg;
             ""
           | ic ->
             Fun.protect
               ~finally:(fun () -> close_in ic)
               (fun () -> really_input_string ic (in_channel_length ic)))
         docs)
  in
  (* A whole-name mention: the characters on both sides of [name]
     are not name characters, so "ra" is not found in "parameter". *)
  let mentions hay name =
    let nh = String.length hay and nn = String.length name in
    let apart i =
      i < 0 || i >= nh
      ||
      match hay.[i] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> false
      | _ -> true
    in
    let rec go i =
      i + nn <= nh
      && ((String.sub hay i nn = name && apart (i - 1) && apart (i + nn))
         || go (i + 1))
    in
    nn > 0 && go 0
  in
  List.iter
    (fun (kind, names) ->
      List.iter
        (fun name ->
          if not (mentions doc_text name) then
            err "lint-names: %s %S is not mentioned in %s" kind name
              (String.concat ", " docs))
        names)
    [ ("replacement", Policy.Spec.replacements);
      ("policy-modifier", Policy.Spec.modifiers);
      ("subcommand", List.map (fun (c, _) -> Cmd.name c) commands);
      ("ablation", ablation_names) ];
  (* Every experiment module must be claimed by a subcommand. *)
  let covered = List.concat_map snd commands in
  (match Sys.readdir experiments_dir with
  | exception Sys_error msg -> err "lint-names: cannot list %s" msg
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" then begin
          let m = Filename.chop_suffix f ".ml" in
          if (not (List.mem m lint_infra)) && not (List.mem m covered) then
            err "lint-names: lib/experiments/%s is not claimed by any \
                 subcommand" f
        end)
      files);
  List.rev !errors
