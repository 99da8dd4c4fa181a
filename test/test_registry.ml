(* Tests for lib/registry and its adopters: the spec grammar, typed
   errors with did-you-mean, register/resolve round-trips (qcheck),
   the data-isolation convention, byte-identical legacy behaviour
   (golden spec table, USD-trace seed equivalence, the chaos plan
   pinned field for field), two extensions — a [random] replacement
   policy registered and a [zipf] workload passed by value —
   end-to-end from this file with zero edits to core modules, and the
   whole-name rule of [lint-registry]. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

(* Substring test (no dependency on Astring). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- The spec grammar ----------------------------------------------- *)

let atom_exn s =
  match Registry.Spec.atom_of_string s with
  | Ok a -> a
  | Error e -> Alcotest.failf "atom %S: %s" s e

let spec_grammar () =
  let a = atom_exn "wsclock:32" in
  checks "head" "wsclock" a.Registry.Spec.head;
  Alcotest.(check (list string)) "bare arg" [ "32" ] a.Registry.Spec.args;
  let a = atom_exn "stall:site=Victim.swap,rate=0.5,ms=30" in
  checks "head" "stall" a.Registry.Spec.head;
  Alcotest.(check (option string))
    "param site (lowercased)" (Some "victim.swap")
    (Registry.Spec.param a "site");
  Alcotest.(check (option string))
    "param rate" (Some "0.5")
    (Registry.Spec.param a "rate");
  check "no bare args" 0 (List.length a.Registry.Spec.args);
  (match Registry.Spec.of_string "fifo+ra8+wb4" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    checks "base" "fifo" t.Registry.Spec.base.Registry.Spec.head;
    Alcotest.(check (list string))
      "modifier heads" [ "ra8"; "wb4" ]
      (List.map (fun m -> m.Registry.Spec.head) t.Registry.Spec.mods));
  Alcotest.(check (option (pair string string)))
    "suffix split"
    (Some ("ra", "8"))
    (Registry.Spec.split_suffix "ra8");
  Alcotest.(check (option (pair string string)))
    "no suffix" None
    (Registry.Spec.split_suffix "fifo");
  checkb "empty spec is malformed" true
    (Result.is_error (Registry.Spec.of_string "   "))

(* --- Typed errors and did-you-mean ----------------------------------- *)

let errors_axis : int Registry.axis =
  Registry.axis ~name:"test-errors" ~doc:"error-path scratch axis"

let typed_errors () =
  (match
     Registry.register errors_axis
       (Registry.manifest ~name:"laxity" ~doc:"scratch" ())
       (fun _ -> Ok 1)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first registration refused");
  (match
     Registry.register errors_axis
       (Registry.manifest ~name:"laxity" ~doc:"again" ())
       (fun _ -> Ok 2)
   with
  | Error (Registry.Duplicate_extension { axis; name }) ->
    checks "dup axis" "test-errors" axis;
    checks "dup name" "laxity" name
  | _ -> Alcotest.fail "duplicate registration accepted");
  (match Registry.resolve errors_axis "laxty" with
  | Error (Registry.Unknown_extension { axis; name; known }) ->
    checks "unknown axis" "test-errors" axis;
    checks "unknown name" "laxty" name;
    checkb "known lists the neighbour" true (List.mem "laxity" known);
    let msg = Registry.error_message (Registry.Unknown_extension { axis; name; known }) in
    checkb "did-you-mean in message" true
      (contains msg "laxity")
  | _ -> Alcotest.fail "typo resolved");
  Alcotest.(check (list string))
    "suggest ranks the close match first" [ "laxity" ]
    (Registry.suggest ~known:[ "laxity"; "stream" ] "laxty")

(* --- Register/resolve round-trip (qcheck) ---------------------------- *)

let roundtrip_axis : int Registry.axis =
  Registry.axis ~name:"test-roundtrip" ~doc:"round-trip scratch axis"

let batch = ref 0

let register_resolve_roundtrip =
  QCheck.Test.make ~name:"registry: register N names, resolve them all"
    ~count:50
    QCheck.(small_list (string_gen_of_size (Gen.return 6) Gen.printable))
    (fun names ->
      incr batch;
      let names =
        List.sort_uniq compare
          (List.filter_map
             (fun s ->
               let b = Buffer.create 8 in
               String.iter
                 (fun c ->
                   match Char.lowercase_ascii c with
                   | ('a' .. 'z' | '0' .. '9') as lc -> Buffer.add_char b lc
                   | _ -> ())
                 s;
               (* A leading letter keeps the numeric-suffix fallback
                  out of the picture. The axis outlives a batch, so
                  the batch number ends at a '_' (no filtered name
                  has one): batch 1's "23" and batch 12's "3" must
                  not both be "b123". *)
               if Buffer.length b = 0 then None
               else Some (Printf.sprintf "b%d_%s" !batch (Buffer.contents b)))
             names)
      in
      List.iteri
        (fun i n ->
          Registry.register_exn roundtrip_axis
            (Registry.manifest ~name:n ~doc:"scratch" ())
            (fun _ -> Ok i))
        names;
      List.for_all
        (fun (i, n) ->
          Registry.resolve roundtrip_axis n = Ok i
          && Registry.mem roundtrip_axis n
          && Registry.find_manifest roundtrip_axis n <> None)
        (List.mapi (fun i n -> (i, n)) names))

(* --- Golden legacy spec table ---------------------------------------- *)

(* Every pre-registry spec string must parse to the same value the old
   closed parser produced — byte-for-byte compatibility of the CLI
   surface. *)
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
      ("wsclock:32+ra4+wb2", (Spec.Wsclock { window = 32 }, Prefetch.Stream 4, 2));
      ("FIFO+RA8", (Spec.Fifo, Prefetch.Stream 8, 1)) ];
  (* Legacy error wording for the empty spec. *)
  (match Policy.Spec.of_string "" with
  | Error "empty policy" -> ()
  | _ -> Alcotest.fail "empty spec wording changed");
  checkb "unknown base is an error" true
    (Result.is_error (Policy.Spec.of_string "fifp"));
  checkb "bad modifier arg is an error" true
    (Result.is_error (Policy.Spec.of_string "fifo+ra0"))

(* --- Data isolation --------------------------------------------------- *)

(* Registered values are factories: two instantiations must not share
   state. Checked for a replacement policy and a workload pattern's
   per-app generator. *)
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
  check "second instance is fresh" 0 (b.Policy.Replacement.residents ());
  (* Same for a pattern extension's per-app generator. *)
  let g =
    { Workload.Paging_app.g_name = "iso-probe";
      g_make =
        (fun () ->
          let count = ref 0 in
          fun ~rng:_ ~npages:_ ->
            incr count;
            !count) }
  in
  let g1 = g.Workload.Paging_app.g_make () in
  let g2 = g.Workload.Paging_app.g_make () in
  let rng = Rng.create ~seed:1 in
  check "g1 first" 1 (g1 ~rng ~npages:8);
  check "g1 second" 2 (g1 ~rng ~npages:8);
  check "g2 unaffected by g1" 1 (g2 ~rng ~npages:8)

(* --- Seed equivalence through the registry ---------------------------- *)

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
   driver's built-in default, once under the registry-resolved "fifo"
   spec — and demand identical USD transaction streams: resolving
   through the registry must not perturb a seeded run by a single
   blok. *)
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
  let resolved =
    match Policy.Spec.of_string "fifo" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let reference = swap_trace ~policy:None () in
  let via_registry = swap_trace ~policy:(Some resolved) () in
  check "reference trace is non-trivial" 12 (List.length reference);
  checkb "registry-resolved fifo replays the seed trace exactly" true
    (reference = via_registry)

(* --- New extensions, end to end, zero core edits ----------------------- *)

(* A genuinely new replacement policy: deterministic pseudo-random
   victim (own LCG, fresh per instantiation), registered from the test
   suite. *)
let () =
  Registry.register_exn Policy.Spec.replacement_axis
    (Registry.manifest ~name:"random"
       ~doc:"uniform pseudo-random victim (test extension)" ())
    (fun a ->
      if a.Registry.Spec.args = [] && a.Registry.Spec.params = [] then
        Ok
          (Policy.Spec.Ext
             { Policy.Spec.mk_name = "random";
               mk_make =
                 (fun ~now:_ ->
                   let resident = ref [] in
                   let state = ref 12345 in
                   let next bound =
                     state := ((!state * 1103515245) + 12321) land 0x3FFFFFFF;
                     !state mod bound
                   in
                   { Policy.Replacement.name = "random";
                     insert = (fun p -> resident := p :: !resident);
                     victim =
                       (fun probe ->
                         let live =
                           List.filter probe.Policy.Replacement.resident
                             !resident
                         in
                         match live with
                         | [] -> None
                         | _ ->
                           let v = List.nth live (next (List.length live)) in
                           resident := List.filter (( <> ) v) !resident;
                           Some v);
                     remove =
                       (fun p -> resident := List.filter (( <> ) p) !resident);
                     residents = (fun () -> List.length !resident) }) })
      else Error "random takes no parameter")

(* ... and a genuinely new workload, passed by value: log-uniform
   ("zipf-ish") page choice, skewed toward low page numbers. *)
let zipf =
  { Workload.Paging_app.g_name = "zipf";
    g_make =
      (fun () ->
        fun ~rng ~npages ->
         let u = Rng.float rng 1.0 in
         let p = int_of_float (float_of_int npages ** u) - 1 in
         if p < 0 then 0 else p) }

let new_replacement_end_to_end () =
  (* The new policy composes with built-in modifiers... *)
  (match Policy.Spec.of_string "random+ra4" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    checks "canonical name" "random+ra4" (Policy.Spec.name t);
    checkb "prefetch picked up" true (t.Policy.Spec.prefetch = Policy.Prefetch.Stream 4));
  (* ...and drives a real paged domain through the stock System API. *)
  let spec =
    match Policy.Spec.of_string "random" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let trace = swap_trace ~policy:(Some spec) () in
  checkb "random-policy run pages" true (List.length trace >= 12)

let new_workload_end_to_end () =
  let pattern = Workload.Paging_app.Ext zipf in
  checks "pattern name round-trips" "zipf"
    (Workload.Paging_app.pattern_name pattern);
  let sys = Experiments.Harness.fresh_system () in
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  let app =
    match
      Workload.Paging_app.start sys ~name:"zapp"
        ~mode:Workload.Paging_app.Paging_in ~qos ~vm_bytes:(256 * Addr.page_size)
        ~phys_frames:16 ~swap_bytes:(512 * Addr.page_size) ~pattern ()
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  System.run sys ~until:(Time.sec 30);
  checkb "zipf app made progress" true
    (Workload.Paging_app.bytes_processed app > 0)

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

(* --- The experiment axis ---------------------------------------------- *)

let experiment_axis_complete () =
  let expected =
    [ "ablate"; "all"; "chaos"; "crash-recover"; "crosstalk"; "erasure";
      "failover"; "fig7"; "fig8"; "fig9"; "netiso"; "policy-compare";
      "remote"; "scale"; "table1"; "tenancy" ]
  in
  Alcotest.(check (list string))
    "every legacy subcommand is registered" expected
    (Registry.names Experiments.Catalog.axis);
  List.iter
    (fun n ->
      match Experiments.Catalog.resolve n with
      | Ok e ->
        checkb (n ^ " claims modules") true
          (e.Experiments.Catalog.e_modules <> [])
      | Error err -> Alcotest.fail (Registry.error_message err))
    expected;
  Alcotest.(check (list string))
    "every ablation is registered"
    (List.sort compare Experiments.Catalog.ablation_names)
    (Registry.names Experiments.Catalog.ablation_axis)

(* --- Introspection ----------------------------------------------------- *)

(* The program's axes are exactly the four a name from outside reaches
   (CLI flags and subcommands); this suite's scratch axes are
   ["test-*"]. *)
let introspection_json () =
  Alcotest.(check (list string))
    "the program's axes"
    [ "replacement"; "policy-modifier"; "experiment"; "ablation" ]
    (List.filter
       (fun a -> not (String.starts_with ~prefix:"test-" a))
       (List.map fst (Registry.axes ())));
  let json = Json.to_string (Registry.to_json ()) in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "to_json mentions %S" needle) true
        (contains json needle))
    [ "\"axis\": \"replacement\""; "\"axis\": \"experiment\"";
      "\"name\": \"wsclock\""; "\"default\": \"wsclock:16\"" ]

(* --- lint-registry matches whole names ---------------------------------- *)

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
  let flags complaints (axis, name) =
    List.exists
      (fun c ->
        contains c (Printf.sprintf "lint-registry: %s %S is not" axis name))
      complaints
  in
  let short =
    [ ("policy-modifier", "ad"); ("policy-modifier", "ra");
      ("ablation", "pt"); ("experiment", "all") ]
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
  [ ( "registry",
      [ Alcotest.test_case "spec grammar" `Quick spec_grammar;
        Alcotest.test_case "typed errors + did-you-mean" `Quick typed_errors;
        qtest register_resolve_roundtrip;
        Alcotest.test_case "golden legacy spec table" `Quick
          golden_legacy_specs;
        Alcotest.test_case "data isolation" `Quick data_isolation;
        Alcotest.test_case "seed equivalence via registry" `Quick
          seed_equivalence;
        Alcotest.test_case "new replacement end-to-end" `Quick
          new_replacement_end_to_end;
        Alcotest.test_case "new workload end-to-end" `Quick
          new_workload_end_to_end;
        Alcotest.test_case "chaos plan golden equality" `Quick
          chaos_plan_golden;
        Alcotest.test_case "experiment axis complete" `Quick
          experiment_axis_complete;
        Alcotest.test_case "introspection JSON" `Quick introspection_json;
        Alcotest.test_case "lint matches whole names" `Quick
          lint_whole_names ] ) ]
