(** Policy selection: which replacement, read-ahead and write-behind a
    paged stretch driver should run.

    A spec is a small immutable value that workloads thread down to
    {e their own} driver — per-domain policy choice is the point of
    self-paging. Specs have a compact textual form for CLI use, parsed
    by {!of_string}:

    {v
      fifo | clock | lru | wsclock | wsclock:32
        optionally followed by modifiers, '+'-separated:
      +raN       stream read-ahead, window N     (e.g. fifo+ra8)
      +adN       adaptive read-ahead, window N   (e.g. clock+ad8)
      +wbN       write-behind, batch N frames    (e.g. lru+wb16)
    v}

    An argument may also follow a [':'] ([wsclock:32], [ra:8]) or be
    given by name ([wsclock:window=32], [wb:batch=16]). A new policy
    is one more {!replacement} constructor.

    [default] — FIFO, no read-ahead, write-through — reproduces the
    seed driver's behaviour exactly. *)

type replacement =
  | Fifo
  | Clock
  | Lru
  | Wsclock of { window : int }

type t = {
  replacement : replacement;
  prefetch : Prefetch.mode;
  wb_batch : int;  (** <= 1 = write-through *)
}

val default : t

val replacements : string list
(** The base names {!of_string} accepts, sorted. *)

val modifiers : string list
(** The modifier names {!of_string} accepts, sorted. *)

val name : t -> string
(** Canonical textual form (parsable by {!of_string}). *)

val of_string : string -> (t, string) result
(** Parse a base policy name and its ['+']-separated modifiers
    ([ra], [ad], [wb]; a later one overrides an earlier). Case is
    ignored and the whole string is trimmed. Errors read ["empty
    policy"], ["unknown replacement \"fifp\"; known: clock, fifo, lru,
    wsclock"] or ["malformed policy-modifier spec \"ra0\": bad
    modifier \"ra0\""]. *)

val presets : (string * t) list
(** The line-up [policy-compare] runs by default: fifo, fifo+ra8,
    fifo+wb8, clock, lru, wsclock. *)

val make_replacement : t -> now:(unit -> int) -> Replacement.t
val make_prefetch : t -> Prefetch.t
