(* nemesis-sim: regenerate the paper's tables and figures.

   Subcommands are not listed here: every experiment lives on the
   "experiment" axis of the extension registry (lib/experiments/catalog),
   and this binary builds one cmdliner command per registered manifest —
   flags, defaults and doc strings all come from the manifest's param
   descriptors. Registering a new experiment in the catalog is enough to
   grow the CLI; see `nemesis-sim list-extensions` for the full
   inventory and DESIGN.md §16 for the registry itself. *)

open Cmdliner
open Experiments

(* Observability: either flag switches instrumentation on for the whole
   run; experiments that execute several configurations reset the
   registry between them, so the dumped files cover the final
   configuration (the stdout report covers each). *)

let metrics_arg =
  let doc =
    "Enable instrumentation and write the metrics registry (counters, \
     gauges, latency histograms) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Enable instrumentation and write finished spans as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let obs_args = Term.(const (fun m t -> (m, t)) $ metrics_arg $ trace_arg)

let with_obs (metrics, trace) f =
  let instrument = metrics <> None || trace <> None in
  if instrument then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  f ();
  if instrument then begin
    Option.iter
      (fun path ->
        Catalog.write_file path (Json.to_string (Obs.Metrics.to_json ())))
      metrics;
    Option.iter (fun path -> Catalog.write_file path (Obs.Span.to_csv ())) trace
  end

(* One cmdliner term per manifest parameter. The "duration" name is
   special-cased to the historical -d/--duration spelling; everything
   else gets a long flag named after the parameter. *)
let value_term (p : Registry.param) : Catalog.value Term.t =
  let pname = p.Registry.p_name in
  let doc = p.Registry.p_doc in
  match p.Registry.p_kind with
  | Registry.Flag ->
    Term.(const (fun b -> Catalog.Bool b) $ Arg.(value & flag & info [ pname ] ~doc))
  | Registry.Int default ->
    let flags, docv =
      if pname = "duration" then ([ "d"; "duration" ], "SECONDS")
      else ([ pname ], "N")
    in
    Term.(
      const (fun i -> Catalog.I i)
      $ Arg.(value & opt int default & info flags ~docv ~doc))
  | Registry.String ->
    Term.(
      const (fun s -> Catalog.S s)
      $ Arg.(value & opt (some string) None & info [ pname ] ~docv:"VAL" ~doc))
  | Registry.Names defaults ->
    Term.(
      const (fun l -> Catalog.L l)
      $ Arg.(value & pos_all string defaults & info [] ~docv:"NAME" ~doc))

let ctx_term (m : Registry.manifest) : Catalog.ctx Term.t =
  List.fold_left
    (fun acc (p : Registry.param) ->
      Term.(
        const (fun ctx v -> (p.Registry.p_name, v) :: ctx) $ acc $ value_term p))
    (Term.const []) m.Registry.m_params

let cmd_of_manifest (m : Registry.manifest) =
  let name = m.Registry.m_name in
  let run obs ctx =
    match Catalog.resolve name with
    | Error e ->
      Printf.eprintf "nemesis-sim: %s\n" (Registry.error_message e);
      exit 2
    | Ok entry ->
      with_obs obs (fun () ->
          if not (entry.Catalog.e_run ctx) then exit 1)
  in
  Cmd.v (Cmd.info name ~doc:m.Registry.m_doc) Term.(const run $ obs_args $ ctx_term m)

let list_extensions_cmd =
  let run () = print_endline (Json.to_string (Registry.to_json ())) in
  Cmd.v
    (Cmd.info "list-extensions"
       ~doc:
         "Dump every extension axis (replacement policies, policy \
          modifiers, experiments, ablations) with manifests as JSON")
    Term.(const run $ const ())

let lint_registry_cmd =
  let run () =
    match
      Catalog.lint
        ~docs:[ "README.md"; "DESIGN.md" ]
        ~experiments_dir:"lib/experiments"
    with
    | [] ->
      let axes = Registry.axes () in
      let names =
        List.fold_left
          (fun n (a, _) ->
            match Registry.axis_manifests a with
            | Some ms -> n + List.length ms
            | None -> n)
          0 axes
      in
      Printf.printf "lint-registry: OK (%d names across %d axes)\n" names
        (List.length axes)
    | errors ->
      List.iter (fun e -> Printf.eprintf "%s\n" e) errors;
      exit 1
  in
  Cmd.v
    (Cmd.info "lint-registry"
       ~doc:
         "Check (from the repo root) that every registered extension name \
          is documented and every lib/experiments module is claimed by a \
          registered experiment")
    Term.(const run $ const ())

let main =
  let info =
    Cmd.info "nemesis-sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of `Self-Paging in the Nemesis Operating System' \
         (OSDI 1999)"
  in
  Cmd.group info
    (List.map cmd_of_manifest (Registry.manifests Catalog.axis)
    @ [ list_extensions_cmd; lint_registry_cmd ])

let () = exit (Cmd.eval main)
