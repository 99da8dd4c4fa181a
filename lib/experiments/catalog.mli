(** The experiment catalog: every nemesis-sim subcommand as a registry
    entry, so the CLI is a generic manifest-driven dispatcher.

    Each entry's manifest declares the subcommand's parameters ({!type:Registry.param_kind})
    and documentation; the CLI builds its cmdliner term from those
    descriptors and hands the parsed values back as a {!ctx}. *)

(** A parsed CLI parameter value, keyed by parameter name in a {!ctx}. *)
type value =
  | Bool of bool
  | I of int
  | S of string option
  | L of string list

type ctx = (string * value) list

type entry = {
  e_modules : string list;
      (** lib/experiments modules this entry exercises (for lint). *)
  e_run : ctx -> bool;  (** Run it; [false] means the verdict failed. *)
}

val axis : entry Registry.axis
(** The "experiment" axis; every subcommand of nemesis-sim lives here. *)

val resolve : string -> (entry, Registry.error) result

val ablation_axis : (int -> unit) Registry.axis
(** The "ablation" axis; each value takes the requested duration in
    seconds and applies its own historical floor/ceiling. *)

val ablation_names : string list
(** The built-in ablations, in their historical run order. *)

val write_file : string -> string -> unit
(** Write [contents] (plus a trailing newline) to a path, printing
    "wrote PATH"; prints to stderr and exits 1 if the path is
    unwritable. *)

val lint : docs:string list -> experiments_dir:string -> string list
(** [lint ~docs ~experiments_dir] returns human-readable complaints:
    registered names (on any axis) not mentioned as a whole name in
    any of the [docs] files — neither neighbouring character may be a
    letter, digit, ['_'] or ['-'] — and lib/experiments modules not
    claimed by any catalog entry's [e_modules]. Empty list means
    clean. *)
