(** Named read-only global segments: one resident copy, N mappers.

    The model of a shared text segment. A segment has a fixed page
    count; any attached domain's first touch of a page {e materializes}
    it (one registry frame, one fill delay) and every later fault — in
    any attached domain — resolves on the fast path to a shared
    read-only mapping of that same frame, taking one RamTab reference.
    Writes are refused ([Access_violation] → domain fault). Detach (or
    domain death, via a kill hook) drops the domain's references; the
    last reference frees the frame back through the registry.

    Per-domain attribution: each attachment counts its own faults
    under its domain-name label in [Obs.Metrics] (["seg.hit"]), while
    materializations are global (["seg.fill"]) — so an experiment can
    show N domains faulting M pages cost [M] fills and [N*M - M]
    cheap hits with exactly [M] frames resident. *)

open Core

type t

exception Not_bound of { driver : string }
(** An attachment's driver was consulted before the system bound its
    stretch — a wiring bug, not a runtime condition. Typed per the
    PR 5 convention: the registered printer renders the legacy
    ["Seg: driver not bound"] string. *)

val create : reg:Registry.t -> name:string -> npages:int -> unit -> t
(** Materializing a page costs a 50 us sleep — fetching the segment's
    contents from wherever "text" lives. *)

val resident : t -> int
(** Pages with a materialized frame right now — the segment's whole
    physical footprint, however many domains map it. *)

val fills : t -> int
(** Materializations ever (monotonic; equals the number of distinct
    first touches). *)

type attachment

val attach : t -> System.domain -> (attachment * Stretch.t, System.error) result
(** Allocate an [npages] stretch in the domain (rights r-x+meta, no
    write), bind the segment driver and register the kill-hook
    detach. *)

val mapped : attachment -> int
