open Engine

let sec s = Time.sec s

(* --- CLI-independent file output ------------------------------------- *)

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

(* --- parameter values ------------------------------------------------ *)

type value =
  | Bool of bool
  | I of int
  | S of string option
  | L of string list

type ctx = (string * value) list

let geti ctx name ~default =
  match List.assoc_opt name ctx with Some (I i) -> i | _ -> default

let getb ctx name =
  match List.assoc_opt name ctx with Some (Bool b) -> b | _ -> false

let gets ctx name =
  match List.assoc_opt name ctx with Some (S s) -> s | _ -> None

let getl ctx name ~default =
  match List.assoc_opt name ctx with Some (L l) -> l | _ -> default

let duration ctx ~default = sec (geti ctx "duration" ~default)

(* --- the experiment axis --------------------------------------------- *)

type entry = { e_modules : string list; e_run : ctx -> bool }

let axis : entry Registry.axis =
  Registry.axis ~name:"experiment"
    ~doc:
      "nemesis-sim subcommands: each entry's manifest declares its CLI \
       parameters and its run function returns the verdict"

let resolve name = Registry.resolve axis name

(* --- the ablation axis ----------------------------------------------- *)

(* The per-name ablation dispatch used to be a closed match in the CLI
   with a bare "unknown ablation" print; names now resolve here, so an
   out-of-tree ablation is a registration and a typo gets the
   did-you-mean treatment. Each value takes the requested duration in
   seconds and applies its own historical floor/ceiling. *)
let ablation_axis : (int -> unit) Registry.axis =
  Registry.axis ~name:"ablation"
    ~doc:"design-choice ablations the ablate subcommand can run by name"

(* The one list of ablations: [(name, doc, run)] in run order. *)
let ablations =
  [ ("laxity", "the short-block problem: USD laxity on vs off", fun d ->
      let r = Ablations.run_laxity ~duration:(sec (min d 120)) () in
      Ablations.print_laxity r;
      Ablations.print_laxity_sweep r);
    ("rollover", "slack rollover accounting on vs off", fun d ->
      Ablations.print_rollover (Ablations.run_rollover ~duration:(sec d) ()));
    ("pt", "linear vs guarded page tables", fun _ ->
      Ablations.print_pt (Ablations.run_pt ()));
    ("slack", "slack-time distribution policies", fun d ->
      Ablations.print_slack (Ablations.run_slack ~duration:(sec d) ()));
    ("stream", "stream read-ahead on vs off", fun d ->
      Ablations.print_stream
        (Ablations.run_stream ~duration:(sec (max d 170)) ()));
    ("revoke", "frame revocation protocol variants", fun _ ->
      Ablations.print_revoke (Ablations.run_revoke ())) ]

let () =
  List.iter
    (fun (name, doc, run) ->
      Registry.register_exn ablation_axis
        (Registry.manifest ~name ~doc ())
        (fun a ->
          if a.Registry.Spec.args = [] && a.Registry.Spec.params = [] then
            Ok run
          else Error (Printf.sprintf "%s takes no parameter" name)))
    ablations

let ablation_names = List.map (fun (name, _, _) -> name) ablations

let run_ablation d name =
  match Registry.resolve ablation_axis name with
  | Ok run -> run d
  | Error e -> Printf.eprintf "%s\n" (Registry.error_message e)

(* --- shared parameter descriptors ------------------------------------ *)

let p_duration default =
  { Registry.p_name = "duration";
    p_doc = "Simulated duration in seconds.";
    p_kind = Registry.Int default }

let p_seed =
  { Registry.p_name = "seed";
    p_doc = "Simulation and fault-injection seed.";
    p_kind = Registry.Int 42 }

let p_file name doc =
  { Registry.p_name = name; p_doc = doc; p_kind = Registry.String }

let p_json doc = p_file "json" doc

(* --- the built-in experiments ---------------------------------------- *)

(* A verdict-checked experiment: print, optionally dump JSON, and
   return the acceptance verdict (the CLI exits 1 on [false]). *)
let verdict ctx ~print ~to_json ~ok r =
  print r;
  Option.iter
    (fun path -> write_file path (Json.to_string (to_json r)))
    (gets ctx "json");
  ok r

(* The remote-tier subcommands: one scenario each, one runner. *)
let run_scenario sc ctx =
  verdict ctx ~print:Harness.print_fleet_run ~to_json:Harness.fleet_run_json
    ~ok:Harness.fleet_ok
    (Harness.run_fleet
       ~seed:(geti ctx "seed" ~default:42)
       ~duration:(duration ctx ~default:30) sc)

let run_fig ?mode ~d ctx =
  let r = Paging_fig.run ?mode ~duration:(duration ctx ~default:d) () in
  Paging_fig.print r;
  Paging_fig.print_series r;
  Paging_fig.print_trace r;
  Option.iter (fun path -> write_csv path (paging_csv r)) (gets ctx "csv");
  true

let () =
  let reg name doc ?(params = []) ~modules e_run =
    Registry.register_exn axis
      (Registry.manifest ~name ~doc ~params ())
      (fun a ->
        if a.Registry.Spec.args = [] && a.Registry.Spec.params = [] then
          Ok { e_modules = modules; e_run }
        else Error (Printf.sprintf "%s takes no parameter" name))
  in
  let p_csv = p_file "csv" "Also write the bandwidth series as CSV to FILE." in
  reg "table1" "Comparative micro-benchmarks (Table 1)" ~modules:[ "table1" ]
    (fun _ ->
      Table1.print (Table1.run ());
      true);
  reg "fig7" "Paging in under disk guarantees (Figure 7)"
    ~params:[ p_duration 240; p_csv ]
    ~modules:[ "paging_fig" ]
    (run_fig ~d:240);
  reg "fig8" "Paging out under disk guarantees (Figure 8)"
    ~params:[ p_duration 240; p_csv ]
    ~modules:[ "paging_fig" ]
    (run_fig ~mode:Workload.Paging_app.Paging_out ~d:240);
  reg "fig9" "File-system isolation (Figure 9)"
    ~params:[ p_duration 120; p_csv ]
    ~modules:[ "fig9" ]
    (fun ctx ->
      let r = Fig9.run ~duration:(duration ctx ~default:120) () in
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
        (gets ctx "csv");
      true);
  reg "crosstalk" "External pager vs self-paging (Figure 2, quantified)"
    ~params:[ p_duration 180 ]
    ~modules:[ "crosstalk" ]
    (fun ctx ->
      Crosstalk.print (Crosstalk.run ~duration:(duration ctx ~default:180) ());
      true);
  reg "netiso" "Network-link guarantees and cross-resource crosstalk"
    ~params:[ p_duration 60 ]
    ~modules:[ "net_iso" ]
    (fun ctx ->
      let d = geti ctx "duration" ~default:60 in
      Net_iso.print_shares (Net_iso.run_shares ~duration:(sec (min d 30)) ());
      Net_iso.print_kernel_crosstalk
        (Net_iso.run_kernel_crosstalk ~duration:(sec d) ());
      true);
  reg "policy-compare"
    "Paging figure per replacement/read-ahead/write-behind policy (paper \
     section 5: per-domain policy choice)"
    ~params:
      [ p_duration 60;
        p_json "Also write the comparison matrix as JSON to FILE.";
        { Registry.p_name = "policies";
          p_doc =
            "Comma-separated policy specs to compare (e.g. \
             fifo,fifo+ra8,clock,lru,wsclock:32,fifo+wb8); default: the \
             built-in presets.";
          p_kind = Registry.String } ]
    ~modules:[ "policy_compare" ]
    (fun ctx ->
      let policies =
        Option.map
          (fun s ->
            List.map
              (fun spec ->
                match Policy.Spec.of_string spec with
                | Ok p -> p
                | Error e ->
                  Printf.eprintf "nemesis-sim: %s\n" e;
                  exit 2)
              (String.split_on_char ',' s))
          (gets ctx "policies")
      in
      verdict ctx ~print:Policy_compare.print ~to_json:Policy_compare.to_json
        ~ok:Policy_compare.ok
        (Policy_compare.run ~duration:(duration ctx ~default:60) ?policies ()));
  reg "ablate" "Design-choice ablations (DESIGN.md)"
    ~params:
      [ p_duration 120;
        { Registry.p_name = "names";
          p_doc =
            "Which ablations to run ("
            ^ String.concat "|" ablation_names
            ^ "); default all.";
          p_kind = Registry.Names ablation_names } ]
    ~modules:[ "ablations" ]
    (fun ctx ->
      let d = geti ctx "duration" ~default:120 in
      List.iter (run_ablation d) (getl ctx "names" ~default:ablation_names);
      true);
  reg "chaos"
    "QoS firewalling under injected faults: bad bloks, media errors, stalls, \
     dropped notifications and revocation storms against one victim, with \
     two clean domains as the control group"
    ~params:
      [ p_duration 30; p_seed;
        p_json "Also write the chaos verdict as JSON to FILE." ]
    ~modules:[ "chaos" ]
    (fun ctx ->
      verdict ctx ~print:Chaos.print ~to_json:Chaos.to_json ~ok:Chaos.ok
        (Chaos.run
           ~seed:(geti ctx "seed" ~default:42)
           ~duration:(duration ctx ~default:30) ()));
  reg "crash-recover"
    "Crash consistency and restart: tear the victim's writes at seeded \
     points (data extent and intent journal), remount and replay the \
     journal, respawn the domain and restore its committed pages — with two \
     clean domains as the control group"
    ~params:
      [ p_seed;
        { Registry.p_name = "rounds";
          p_doc = "Crash/remount/restart rounds to run.";
          p_kind = Registry.Int 4 };
        p_json "Also write the recovery verdict as JSON to FILE." ]
    ~modules:[ "crash_recover" ]
    (fun ctx ->
      verdict ctx ~print:Crash_recover.print ~to_json:Crash_recover.to_json
        ~ok:Crash_recover.ok
        (Crash_recover.run
           ~seed:(geti ctx "seed" ~default:42)
           ~rounds:(geti ctx "rounds" ~default:4)
           ()));
  reg "remote"
    "Disaggregated memory: three tiered domains page through a \
     RAM-cache/remote-memory/disk backing store (a one-node fleet) over a \
     shared guaranteed link while three disk-only bystanders run beside \
     them; the second half drops and delays packets on that link and the \
     verdict demands zero bystander violations, balanced fleet books, the \
     fleet's drop count equal to the injector's and a byte-identical \
     same-seed rerun"
    ~params:
      [ p_duration 30; p_seed;
        p_json "Also write the remote-paging verdict as JSON to FILE." ]
    ~modules:[ "remote_tier" ]
    (run_scenario Remote_tier.remote);
  reg "failover"
    "Replicated remote memory under node loss: three tiered domains page \
     through a 4-node fleet (2 replicas per page, rendezvous placement) \
     while three disk-only bystanders run beside them; mid-run one node is \
     wiped and another partitioned, and the verdict demands zero committed \
     pages lost, zero bystander violations, balanced fleet books, a \
     re-replicated wipe victim, a probed-back partition victim and a \
     byte-identical same-seed rerun"
    ~params:
      [ p_duration 30; p_seed;
        p_json "Also write the failover verdict as JSON to FILE." ]
    ~modules:[ "remote_tier" ]
    (run_scenario Remote_tier.failover);
  reg "erasure"
    "Erasure-coded remote memory under double node loss: tiered domains \
     page through a six-node fleet striped k = 4 data + m = 2 parity shards \
     per page, run side by side with the 2-replica baseline; two nodes are \
     wiped mid-run, one node serves corrupt shards and a standby joins the \
     ring. The verdict demands zero committed pages lost, degraded reads \
     served from remote memory at least 50x faster than the disk floor, at \
     most 1.55x storage overhead, balanced shard books, honoured membership \
     change, clean bystanders and a byte-identical same-seed rerun"
    ~params:
      [ p_duration 30; p_seed;
        p_json "Also write the erasure verdict as JSON to FILE." ]
    ~modules:[ "remote_tier" ]
    (run_scenario Remote_tier.erasure);
  reg "scale"
    "Many-domain scale-out: admit 128 self-paging domains under tight CPU, \
     disk and memory admission control, refuse the 129th with a typed \
     overcommit error, and assert zero QoS violations and balanced frame \
     books"
    ~params:
      [ p_duration 60; p_seed;
        { Registry.p_name = "domains";
          p_doc = "Number of self-paging domains to admit.";
          p_kind = Registry.Int 128 };
        p_json "Also write the scale verdict as JSON to FILE." ]
    ~modules:[ "scale" ]
    (fun ctx ->
      verdict ctx ~print:Scale.print ~to_json:Scale.to_json ~ok:Scale.ok
        (Scale.run
           ~seed:(geti ctx "seed" ~default:42)
           ~domains:(geti ctx "domains" ~default:128)
           ~duration:(duration ctx ~default:60) ()));
  reg "tenancy"
    "Multi-tenancy over stacked pagers: freeze a template image, fork 32 \
     copy-on-write tenants over it (swap traffic through the \
     compressed-RAM tier), share a read-only text segment, kill half the \
     fleet mid-run, and assert one resident copy per shared page, balanced \
     reference books and untouched bystander QoS"
    ~params:
      [ p_duration 40; p_seed;
        { Registry.p_name = "tenants";
          p_doc = "Number of CoW tenants to fork from the template.";
          p_kind = Registry.Int 32 };
        { Registry.p_name = "no-share";
          p_doc = "Control arm: fork the fleet without CoW sharing.";
          p_kind = Registry.Flag };
        { Registry.p_name = "no-zram";
          p_doc = "Page tenants straight to disk (no compressed-RAM tier).";
          p_kind = Registry.Flag };
        p_json "Also write the tenancy verdict as JSON to FILE." ]
    ~modules:[ "tenancy" ]
    (fun ctx ->
      verdict ctx ~print:Tenancy.print ~to_json:Tenancy.to_json ~ok:Tenancy.ok
        (Tenancy.run
           ~seed:(geti ctx "seed" ~default:42)
           ~tenants:(geti ctx "tenants" ~default:32)
           ~duration:(duration ctx ~default:40)
           ~share:(not (getb ctx "no-share"))
           ~zram:(not (getb ctx "no-zram"))
           ()));
  reg "all" "Run every table, figure and ablation"
    ~params:[ p_duration 240 ]
    ~modules:[ "report" ]
    (fun ctx ->
      let d = geti ctx "duration" ~default:240 in
      Table1.print (Table1.run ());
      let r7 = Paging_fig.run ~duration:(sec d) () in
      Paging_fig.print r7;
      Paging_fig.print_series r7;
      Paging_fig.print_trace r7;
      let r8 =
        Paging_fig.run ~mode:Workload.Paging_app.Paging_out ~duration:(sec d)
          ()
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
      List.iter (run_ablation (min d 120)) ablation_names;
      Chaos.print (Chaos.run ~duration:(sec (min d 30)) ());
      Crash_recover.print (Crash_recover.run ());
      List.iter
        (fun sc ->
          Harness.print_fleet_run
            (Harness.run_fleet ~seed:42 ~duration:(sec (min d 30)) sc))
        [ Remote_tier.remote; Remote_tier.failover ];
      Tenancy.print (Tenancy.run ~duration:(sec (min d 40)) ());
      true)

(* --- lint ------------------------------------------------------------ *)

let covered_modules () =
  Registry.names axis
  |> List.concat_map (fun n ->
         match Registry.resolve axis n with
         | Ok e -> e.e_modules
         | Error _ -> [])
  |> List.sort_uniq compare

(* Infrastructure modules no experiment entry needs to claim. *)
let lint_infra = [ "catalog"; "harness"; "report" ]

let lint ~docs ~experiments_dir =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Every registered name on every axis must appear in the docs. *)
  let doc_text =
    String.concat "\n"
      (List.map
         (fun path ->
           match open_in path with
           | exception Sys_error msg ->
             err "lint-registry: cannot read %s" msg;
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
    (fun (axis_name, _) ->
      match Registry.axis_manifests axis_name with
      | None -> ()
      | Some ms ->
        List.iter
          (fun (m : Registry.manifest) ->
            if not (mentions doc_text m.Registry.m_name) then
              err "lint-registry: %s %S is not mentioned in %s" axis_name
                m.Registry.m_name
                (String.concat ", " docs))
          ms)
    (Registry.axes ());
  (* Every experiment module must be claimed by a catalog entry. *)
  let covered = covered_modules () in
  (match Sys.readdir experiments_dir with
  | exception Sys_error msg -> err "lint-registry: cannot list %s" msg
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" then begin
          let m = Filename.chop_suffix f ".ml" in
          if
            (not (List.mem m lint_infra)) && not (List.mem m covered)
          then
            err
              "lint-registry: lib/experiments/%s is not claimed by any \
               registered experiment"
              f
        end)
      files);
  List.rev !errors
