(** The subcommands of nemesis-sim: one cmdliner command per
    experiment, its flags typed terms that cmdliner parses once —
    durations, seeds and counts as integers, ablation names as an
    enum. Every command also takes [--metrics FILE] and [--trace FILE],
    which switch instrumentation on and dump it after a successful
    run, and exits 1 when its verdict fails. *)

val commands : (unit Cmdliner.Cmd.t * string list) list
(** Every subcommand, with the lib/experiments modules it exercises
    (for {!lint}). *)

val write_file : string -> string -> unit
(** Write [contents] (plus a trailing newline) to a path, printing
    "wrote PATH"; prints to stderr and exits 1 if the path is
    unwritable. *)

val lint : docs:string list -> experiments_dir:string -> string list
(** [lint ~docs ~experiments_dir] returns human-readable complaints:
    names the command line accepts ({!Policy.Spec.replacements},
    {!Policy.Spec.modifiers}, the subcommands and the ablations) not
    mentioned as a whole name in any of the [docs] files — neither
    neighbouring character may be a letter, digit, ['_'] or ['-'] —
    and lib/experiments modules not claimed by any subcommand. Empty
    list means clean. *)
