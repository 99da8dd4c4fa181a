(** The extension registry: every name that reaches the simulator from
    outside — a policy spec on the command line, a subcommand, an
    ablation — resolves through one typed API instead of a per-axis
    closed variant match.

    A {e hook point} is an {!type:axis}: a typed table the owning
    subsystem creates once ([Policy.Spec.replacement_axis], the
    ["policy-modifier"] axis, [Experiments.Catalog.axis],
    [Experiments.Catalog.ablation_axis]). A module that wants to
    extend the simulator {!register}s a {!manifest} (name, doc line,
    parameter descriptors, default config) together with a parser
    that turns a {!Spec.atom} into the axis's value type. The CLI then
    {!resolve}s spec strings like ["fifo+ra8"] or ["wsclock:32"]
    through the axis — so adding a policy or an experiment is a
    registration, not an edit to a match statement.

    A name is resolved only where it comes from outside the program.
    What the program builds itself — a workload pattern, a backing
    stack, a fault-injection plan — it passes as a value
    ([Workload.Paging_app.Ext], a [swapfile -> Tier.Backing.t]
    function, an [Inject.plan] record).

    {b Data isolation.} Registered values are factories by
    convention: each instantiation (e.g. each
    {!Policy.Spec.make_replacement} call) builds fresh state, so two
    drivers resolving the same extension never share mutable state —
    asserted by the registry tests.

    {b Determinism.} The registry is resolved at configuration time
    only; it holds no per-run state and nothing on a paging hot path
    consults it, so registration order cannot perturb a seeded run. *)

(** {1 Spec strings}

    One grammar shared by policy specs, subcommands and ablations:

    {v
      spec    :=  atom ('+' atom)*            fifo+ra8
      atom    :=  head ((':' | ',') seg)*     wsclock:32   wsclock:window=32
      seg     :=  key '=' value | value
    v}

    A head with a trailing integer (["ra8"]) also resolves as the
    alphabetic stem with the digits as its first bare argument —
    that is how the legacy ["+ra8"]/["+wb8"] modifiers parse without
    special cases. *)
module Spec : sig
  type atom = {
    head : string;  (** lowercased extension name as written *)
    args : string list;  (** bare (non [k=v]) segments, in order *)
    params : (string * string) list;  (** [k=v] segments, in order *)
    raw : string;  (** the whole atom as written (lowercased) *)
  }

  type t = { base : atom; mods : atom list; raw : string }

  val atom_of_string : string -> (atom, string) result
  (** Parse a single atom; trims and lowercases. An empty head is
      allowed (resolution will report it unknown). *)

  val of_string : string -> (t, string) result
  (** Parse a full ['+']-separated spec. [Error] only on the empty
      string — anything else is deferred to resolution. *)

  val split_suffix : string -> (string * string) option
  (** [split_suffix "ra8"] is [Some ("ra", "8")]: the alphabetic stem
      and the trailing decimal digits; [None] when the head has no
      such split. *)

  val param : atom -> string -> string option
  (** Last [k=v] value for the key, if any. *)
end

(** {1 Typed errors} *)

type error =
  | Unknown_extension of { axis : string; name : string; known : string list }
  | Duplicate_extension of { axis : string; name : string }
  | Malformed_spec of { axis : string; spec : string; reason : string }

val error_message : error -> string
(** Human rendering, with a did-you-mean hint and the [known] list on
    unknown names — what the CLI prints. *)

val suggest : known:string list -> string -> string list
(** Close matches (edit distance <= 2, or prefix), best first — the
    did-you-mean candidates. *)

(** {1 Manifests} *)

type param_kind =
  | Flag  (** boolean, off by default *)
  | Int of int  (** integer with default *)
  | String  (** optional string, absent by default *)
  | Names of string list
      (** free-form name list (CLI: positional args); default list *)

type param = { p_name : string; p_doc : string; p_kind : param_kind }

type manifest = {
  m_name : string;  (** the key resolution looks up — lowercase *)
  m_doc : string;  (** one-line description *)
  m_params : param list;  (** accepted parameters, for help output *)
  m_default : string option;  (** canonical default spec, if any *)
}

val manifest :
  ?params:param list -> ?default:string -> name:string -> doc:string ->
  unit -> manifest

(** {1 Axes (hook points)} *)

type 'a axis
(** A typed hook point whose registered extensions parse into ['a]. *)

val axis : name:string -> doc:string -> 'a axis
(** Create (and globally list, for {!axes}/{!to_json}) a hook point.
    Owning subsystems create their axis once at module
    initialisation. *)

val axis_name : _ axis -> string

val register :
  'a axis -> manifest -> (Spec.atom -> ('a, string) result) ->
  (unit, error) result
(** Add an extension. The parser receives the resolved atom (with a
    numeric-suffix head already split into [stem]/[args]) and builds
    the axis value; its [Error reason] surfaces as
    [`Malformed_spec]. *)

val register_exn :
  'a axis -> manifest -> (Spec.atom -> ('a, string) result) -> unit
(** Like {!register}; raises [Invalid_argument] on a duplicate name —
    for built-in registrations at module initialisation, where a
    duplicate is a programming error. *)

val resolve_atom : 'a axis -> Spec.atom -> ('a, error) result
(** Look the atom's head up (falling back to the numeric-suffix
    split) and run the extension's parser. *)

val resolve : 'a axis -> string -> ('a, error) result
(** [resolve axis "wsclock:32"] — parse a single atom and resolve. *)

val mem : 'a axis -> string -> bool
val find_manifest : 'a axis -> string -> manifest option
val names : 'a axis -> string list  (** sorted *)

val manifests : 'a axis -> manifest list  (** sorted by name *)

(** {1 Introspection (the [list-extensions] subcommand)} *)

val axes : unit -> (string * string) list
(** [(name, doc)] of every axis created so far, in creation order. *)

val axis_manifests : string -> manifest list option
(** Manifests of the named axis, if it exists. *)

val to_json : unit -> Json.t
(** The whole registry — every axis with every manifest — as JSON. *)
