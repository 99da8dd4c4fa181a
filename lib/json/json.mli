(** JSON values and their one printed layout.

    Every machine-readable record — the experiments' [--json] dumps,
    the BENCH records, the [--metrics] registry and [list-extensions]
    — is built as a {!t} and printed by {!to_string}, so a new field
    is one more pair in a list rather than one more format string
    kept in step with its arguments.

    Numbers are stored as their printed literal: each field chooses
    its own decimals when the value is built ({!fixed}, {!signif}),
    and NaN or ±∞, which JSON cannot express, become [null]. The type
    is private so every number goes through those constructors. *)

type t = private
  | Null
  | Bool of bool
  | Number of string  (** a JSON number literal, as printed *)
  | String of string
  | Array of t list
  | Object of (string * t) list

val null : t
val bool : bool -> t
val int : int -> t

val fixed : int -> float -> t
(** [fixed d x] prints [x] with [d] decimals ([%.*f]); NaN and ±∞
    are [null]. *)

val signif : int -> float -> t
(** [signif n x] prints [x] with [n] significant digits ([%.*g]); NaN
    and ±∞ are [null]. *)

val string : string -> t
val list : t list -> t
val obj : (string * t) list -> t

val ints : (string * int) list -> t
(** An object whose members are all integers. *)

val to_string : t -> string
(** The one layout: a non-empty top-level object or array puts each
    member on its own line with a two-space indent; everything nested
    is inline, members and elements separated by a comma and a space,
    keys from values by a colon and a space. No trailing newline.

    Strings and keys are escaped per RFC 8259 §7: the double quote,
    the backslash and the control characters U+0000–U+001F; every
    other byte, UTF-8 sequences included, passes through unchanged. *)
