(* Tests for the names that reach the simulator from the command line:
   the policy-spec grammar (every legacy spec string, the glued and
   [k=v] argument forms, and the strings it refuses), data isolation
   of parsed policies, USD-trace seed equivalence of a parsed spec,
   the chaos plan pinned field for field, the subcommand table, the
   whole-name rule of [lint-names], and cmdliner's evaluation of every
   subcommand's help and of the inputs it must refuse. *)

open Engine
open Hw
open Core
open Cmdliner

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Substring test (no dependency on Astring). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Golden legacy spec table ---------------------------------------- *)

(* Every legacy spec string, and each argument form, parses to the
   value below; each refused string fails with the wording below. *)
let golden_legacy_specs () =
  let open Policy in
  let expect = function
    | s, (r, p, wb) ->
      (match Spec.of_string s with
      | Error e -> Alcotest.failf "%S: %s" s e
      | Ok t ->
        checkb
          (Printf.sprintf "%S replacement" s)
          true
          (t.Spec.replacement = r);
        checkb (Printf.sprintf "%S prefetch" s) true (t.Spec.prefetch = p);
        check (Printf.sprintf "%S wb" s) wb t.Spec.wb_batch;
        (* The canonical rendering re-parses to the same value. *)
        (match Spec.of_string (Spec.name t) with
        | Ok t' -> checkb (Printf.sprintf "%S reparse" s) true (t = t')
        | Error e -> Alcotest.failf "%S reparse: %s" s e))
  in
  List.iter expect
    [ ("fifo", (Spec.Fifo, Prefetch.Off, 1));
      ("clock", (Spec.Clock, Prefetch.Off, 1));
      ("lru", (Spec.Lru, Prefetch.Off, 1));
      ("wsclock", (Spec.Wsclock { window = 16 }, Prefetch.Off, 1));
      ("wsclock:32", (Spec.Wsclock { window = 32 }, Prefetch.Off, 1));
      ("fifo+ra8", (Spec.Fifo, Prefetch.Stream 8, 1));
      ("fifo+wb8", (Spec.Fifo, Prefetch.Off, 8));
      ("clock+ad8", (Spec.Clock, Prefetch.Adaptive 8, 1));
      ("lru+wb16", (Spec.Lru, Prefetch.Off, 16));
      ( "wsclock:32+ra4+wb2",
        (Spec.Wsclock { window = 32 }, Prefetch.Stream 4, 2) );
      ("FIFO+RA8", (Spec.Fifo, Prefetch.Stream 8, 1));
      (* glued on, after a ':', and by name *)
      ("wsclock32", (Spec.Wsclock { window = 32 }, Prefetch.Off, 1));
      ("wsclock:window=32", (Spec.Wsclock { window = 32 }, Prefetch.Off, 1));
      ("fifo+ra:8", (Spec.Fifo, Prefetch.Stream 8, 1));
      ("fifo+ad:window=4", (Spec.Fifo, Prefetch.Adaptive 4, 1));
      ("lru+wb:batch=16", (Spec.Lru, Prefetch.Off, 16));
      (* trimmed, and a later modifier overrides an earlier one *)
      ("  clock+ra4+ad8 ", (Spec.Clock, Prefetch.Adaptive 8, 1)) ];
  List.iter
    (fun (s, wording) ->
      match Policy.Spec.of_string s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> checks (Printf.sprintf "%S refused" s) wording e)
    [ ("", "empty policy");
      ("  ", "empty policy");
      ( "fifp",
        "unknown replacement \"fifp\"; known: clock, fifo, lru, wsclock" );
      ( "fifo+ra0",
        "malformed policy-modifier spec \"ra0\": bad modifier \"ra0\"" );
      ("fifo+ra", "malformed policy-modifier spec \"ra\": bad modifier \"ra\"");
      ("fifo+xx8", "unknown policy-modifier \"xx8\"; known: ad, ra, wb");
      ( "fifo8",
        "malformed replacement spec \"fifo8\": fifo takes no parameter" );
      ( "wsclock:0",
        "malformed replacement spec \"wsclock:0\": bad wsclock window \"0\"" );
      ( "wsclock:8:9",
        "malformed replacement spec \"wsclock:8:9\": too many arguments in \
         \"wsclock:8:9\"" );
      ( "wsclock:size=8",
        "malformed replacement spec \"wsclock:size=8\": unknown parameter in \
         \"wsclock:size=8\"" );
      (* ',' separates specs on the command line, never a spec's parts *)
      ( "wsclock:window=32,ra=8",
        "malformed replacement spec \"wsclock:window=32,ra=8\": bad wsclock \
         window \"32,ra=8\"" ) ]

(* --- Data isolation --------------------------------------------------- *)

(* A parsed spec is a value; each driver's replacement policy built
   from it is fresh, so two instances never share state. *)
let data_isolation () =
  let spec =
    match Policy.Spec.of_string "fifo" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let now () = 0 in
  let a = Policy.Spec.make_replacement spec ~now in
  let b = Policy.Spec.make_replacement spec ~now in
  a.Policy.Replacement.insert 1;
  a.Policy.Replacement.insert 2;
  check "first instance sees its pages" 2 (a.Policy.Replacement.residents ());
  check "second instance is fresh" 0 (b.Policy.Replacement.residents ())

(* --- Seed equivalence of a parsed spec --------------------------------- *)

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

(* Drive the same 6-page write+read workload twice — once under the
   driver's built-in default, once under the parsed "fifo" spec — and
   demand identical USD transaction streams: parsing must not perturb
   a seeded run by a single blok. *)
let swap_trace ~policy () =
  let sys = small_sys () in
  let d = add_domain_exn sys ~name:"app" ~guarantee:2 ~optimistic:0 in
  let s = alloc_exn d ~bytes:(6 * Addr.page_size) in
  in_domain sys d (fun () ->
      let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
      (match
         System.bind_paged d ~initial_frames:2 ?policy
           ~swap_bytes:(16 * Addr.page_size) ~qos s ()
       with
      | Ok _ -> ()
      | Error e -> failwith (System.error_message e));
      for i = 0 to 5 do
        Domains.access d.System.dom (Stretch.page_base s i) `Write
      done;
      for i = 0 to 5 do
        Domains.access d.System.dom (Stretch.page_base s i) `Read
      done);
  let txns = ref [] in
  Trace.iter
    (fun t ev ->
      match ev with
      | Usbs.Usd.Txn { client = "app.swap"; op; lba; nblocks; _ } ->
        txns := (t, op, lba, nblocks) :: !txns
      | _ -> ())
    (Usbs.Usd.trace (System.usd sys));
  List.rev !txns

let seed_equivalence () =
  let parsed =
    match Policy.Spec.of_string "fifo" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let reference = swap_trace ~policy:None () in
  let via_spec = swap_trace ~policy:(Some parsed) () in
  check "reference trace is non-trivial" 12 (List.length reference);
  checkb "parsed fifo replays the seed trace exactly" true
    (reference = via_spec)

(* --- The chaos plan ------------------------------------------------------ *)

(* The chaos experiment's plan must equal this record field for field:
   any change to what the victim is hit with moves the pin. *)
let chaos_plan_golden () =
  let first = 2048 and nblocks = 4096 and seed = 7 in
  let page_blocks = Addr.page_size / 512 in
  let bad_page slot len =
    { Inject.bf_first = first + (slot * page_blocks);
      bf_len = len * page_blocks;
      bf_op = Some Inject.Write;
      bf_transient = None }
  in
  let expected =
    { Inject.seed;
      blok_faults =
        [ bad_page 3 1; bad_page 17 1; bad_page 40 2;
          { Inject.bf_first = first + (60 * page_blocks);
            bf_len = 4 * page_blocks;
            bf_op = None;
            bf_transient = Some 2 } ];
      regions =
        [ { Inject.rf_first = first;
            rf_len = nblocks;
            rf_read_error = 0.02;
            rf_write_error = 0.02;
            rf_spike = 0.02;
            rf_spike_span = Time.ms 20 } ];
      crashes = [];
      stalls =
        [ ("victim.swap", { Inject.st_rate = 0.02; st_span = Time.ms 30 });
          ("doomed.revoke", { Inject.st_rate = 1.0; st_span = Time.ms 250 }) ];
      chans =
        [ ( "victim.fault",
            { Inject.cf_drop = 0.05;
              cf_delay = 0.05;
              cf_delay_span = Time.of_ms_float 2.0 } ) ];
      links = [];
      pressure = Some { Inject.pr_period = Time.ms 500; pr_hold = Time.ms 150 };
      zpool_pressure = None;
      node_faults = [] }
  in
  checkb "chaos plan equals the pinned literal" true
    (Experiments.Chaos.plan ~seed ~first ~nblocks = expected)

(* --- The subcommands ----------------------------------------------------- *)

let subcommands_complete () =
  Alcotest.(check (list string))
    "every legacy subcommand is in the table"
    [ "ablate"; "all"; "chaos"; "crash-recover"; "crosstalk"; "erasure";
      "failover"; "fig7"; "fig8"; "fig9"; "netiso"; "policy-compare";
      "remote"; "scale"; "table1"; "tenancy" ]
    (List.sort compare
       (List.map (fun (c, _) -> Cmd.name c) Experiments.Catalog.commands));
  List.iter
    (fun (c, modules) ->
      checkb (Cmd.name c ^ " claims modules") true (modules <> []))
    Experiments.Catalog.commands

(* Evaluate the subcommands grouped as the binary groups them, with
   help and error output captured. *)
let eval args =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let group =
    Cmd.group (Cmd.info "nemesis-sim")
      (List.map fst Experiments.Catalog.commands)
  in
  let r =
    Cmd.eval_value ~help:ppf ~err:ppf ~catch:false
      ~argv:(Array.of_list ("nemesis-sim" :: args))
      group
  in
  Format.pp_print_flush ppf ();
  (r, Buffer.contents buf)

(* cmdliner checks a command's options only when it evaluates the
   command, so a clash would first show in a user's run. *)
let every_help_evaluates () =
  List.iter
    (fun (c, _) ->
      let name = Cmd.name c in
      match eval [ name; "--help=plain" ] with
      | Ok `Help, page ->
        checkb (name ^ " help names it") true
          (contains page ("nemesis-sim-" ^ name))
      | _ -> Alcotest.failf "%s --help=plain did not evaluate to `Help" name)
    Experiments.Catalog.commands

(* An unknown ablation and an out-of-range count are usage errors that
   name what was wrong; cmdliner runs no term after a parse error, so
   [ablate pt nonesuch] does not run [pt] first. *)
let bad_input_refused () =
  List.iter
    (fun (args, needle) ->
      let line = String.concat " " args in
      match eval args with
      | Error `Parse, err ->
        checkb (line ^ " names " ^ needle) true (contains err needle)
      | _ -> Alcotest.failf "%s is not a usage error" line)
    [ ([ "ablate"; "nonesuch" ], "nonesuch");
      ([ "ablate"; "pt"; "nonesuch" ], "nonesuch");
      ([ "scale"; "--domains"; "0" ], "--domains");
      ([ "tenancy"; "--tenants"; "1" ], "--tenants") ]

(* --- lint-names matches whole names -------------------------------------- *)

(* A short name inside a longer word is not a mention: "read the
   parameters, except call" names none of [ad], [ra], [pt] and [all];
   the same names set apart by punctuation are all mentioned. The
   experiments directory is empty, so only names are linted. *)
let lint_whole_names () =
  let dir = Filename.temp_dir "lint" "" in
  let doc = Filename.concat dir "doc.md" in
  let lint text =
    Out_channel.with_open_text doc (fun oc -> output_string oc text);
    Experiments.Catalog.lint ~docs:[ doc ] ~experiments_dir:dir
  in
  let flags complaints (kind, name) =
    List.exists
      (fun c ->
        contains c (Printf.sprintf "lint-names: %s %S is not" kind name))
      complaints
  in
  let short =
    [ ("policy-modifier", "ad"); ("policy-modifier", "ra");
      ("ablation", "pt"); ("subcommand", "all") ]
  in
  let hidden = lint "read the parameters, except call" in
  let apart = lint "`ad`, (ra) pt; all." in
  Sys.remove doc;
  Sys.rmdir dir;
  List.iter
    (fun ((_, name) as n) ->
      checkb (name ^ " inside a word is not a mention") true (flags hidden n);
      checkb (name ^ " as a whole name is a mention") false (flags apart n))
    short

let suite =
  [ ( "cli",
      [ Alcotest.test_case "golden legacy spec table" `Quick
          golden_legacy_specs;
        Alcotest.test_case "data isolation" `Quick data_isolation;
        Alcotest.test_case "seed equivalence" `Quick seed_equivalence;
        Alcotest.test_case "chaos plan golden equality" `Quick
          chaos_plan_golden;
        Alcotest.test_case "subcommands complete" `Quick subcommands_complete;
        Alcotest.test_case "every subcommand's help evaluates" `Quick
          every_help_evaluates;
        Alcotest.test_case "bad names and counts are usage errors" `Quick
          bad_input_refused;
        Alcotest.test_case "lint matches whole names" `Quick
          lint_whole_names ] ) ]
