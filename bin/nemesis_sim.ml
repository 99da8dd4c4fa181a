(* nemesis-sim: regenerate the paper's tables and figures.

   The subcommands are Experiments.Catalog.commands; this binary groups
   them with lint-names, which checks the docs name everything the
   command line accepts. *)

open Cmdliner
open Experiments

let lint_names_cmd =
  let run () =
    match
      Catalog.lint
        ~docs:[ "README.md"; "DESIGN.md" ]
        ~experiments_dir:"lib/experiments"
    with
    | [] -> print_endline "lint-names: OK"
    | errors ->
      List.iter prerr_endline errors;
      exit 1
  in
  Cmd.v
    (Cmd.info "lint-names"
       ~doc:
         "Check (from the repo root) that every policy, modifier, subcommand \
          and ablation name is documented and every lib/experiments module \
          is claimed by a subcommand")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "nemesis-sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of `Self-Paging in the Nemesis Operating System' \
         (OSDI 1999)"
  in
  exit
    (Cmd.eval
       (Cmd.group info (List.map fst Catalog.commands @ [ lint_names_cmd ])))
