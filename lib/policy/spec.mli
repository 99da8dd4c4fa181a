(** Policy selection: which replacement, read-ahead and write-behind a
    paged stretch driver should run.

    A spec is a small immutable value that workloads thread down to
    {e their own} driver — per-domain policy choice is the point of
    self-paging. Specs have a compact textual form for CLI use:

    {v
      fifo | clock | lru | wsclock | wsclock:32
        optionally followed by modifiers, '+'-separated:
      +raN       stream read-ahead, window N     (e.g. fifo+ra8)
      +adN       adaptive read-ahead, window N   (e.g. clock+ad8)
      +wbN       write-behind, batch N frames    (e.g. lru+wb16)
    v}

    Since the extension-registry redesign the textual form resolves
    through {!Registry}: base names through {!replacement_axis},
    modifiers through the ["policy-modifier"] axis. The built-ins
    above are ordinary registrations, and a new policy registers
    itself the same way — no edit to this module:

    {[
      Registry.register_exn Policy.Spec.replacement_axis
        (Registry.manifest ~name:"random" ~doc:"uniform random victim" ())
        (fun _atom ->
          Ok (Policy.Spec.Ext { mk_name = "random"; mk_make = my_make }))
    ]}

    [default] — FIFO, no read-ahead, write-through — reproduces the
    seed driver's behaviour exactly. *)

type maker = {
  mk_name : string;
      (** canonical, re-parsable name reported by {!name} — bake any
          parameters in (e.g. ["zipf:90"]) *)
  mk_make : now:(unit -> int) -> Replacement.t;
      (** build a {e fresh} policy instance — one per driver, no
          shared state between instantiations (registry isolation
          rule, asserted by the registry tests) *)
}

type replacement =
  | Fifo
  | Clock
  | Lru
  | Wsclock of { window : int }
  | Ext of maker  (** a registered extension ({!replacement_axis}) *)

type t = {
  replacement : replacement;
  prefetch : Prefetch.mode;
  wb_batch : int;  (** <= 1 = write-through *)
}

val default : t

val replacement_axis : replacement Registry.axis
(** Hook point for base policy names ([fifo], [clock], ...). *)

val name : t -> string
(** Canonical textual form (parsable by {!of_string}). *)

val of_string : string -> (t, string) result
(** Parse a base policy name and its ['+']-separated modifiers ([ra],
    [ad], [wb]) and resolve both through the registry, rendering errors
    as strings (with a did-you-mean hint); accepts every pre-registry
    spec string byte-for-byte (golden test in
    [test/test_registry.ml]). *)

val presets : (string * t) list
(** The line-up [policy-compare] runs by default: fifo, fifo+ra8,
    fifo+wb8, clock, lru, wsclock. *)

val make_replacement : t -> now:(unit -> int) -> Replacement.t
val make_prefetch : t -> Prefetch.t
