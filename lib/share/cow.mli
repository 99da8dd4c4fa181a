(** Copy-on-write stretch sharing over stacked pagers.

    A {e template} domain warms a paged stretch, then {!freeze}
    surrenders its resident pages to the share {!Registry}. Each
    {!spawn}ed tenant gets a fresh domain (admitted under the
    template's resource envelope), its own full inner paged stack
    ({!Core.Sd_paged}, optionally over {!Sd_zram}) and a CoW driver
    interposed on top:

    - a {b read} of an untouched template page resolves on the fast
      path to a shared read-only mapping of the template's frame (one
      RamTab reference, no frame consumed from the tenant's quota);
    - the first {b write} raises [Access_violation] (template pages
      carry per-PTE rights \{r,m\}, and the MMU checks rights before
      validity) and the worker path {e breaks} the share: a private
      frame is obtained by the inner pager's full means — paid for and
      accounted exactly like a page-in — the page is copied, the
      shared reference dropped, the page re-protected rw and adopted
      into the inner pager, which thereafter evicts/cleans/revokes it
      like any other;
    - pages outside the template (or never resident at freeze time)
      just have their rights lifted and fault through the inner pager.

    Per-tenant fault attribution lands in [Obs.Metrics] under the
    tenant's domain-name label (["share.cow_shared"],
    ["share.cow_break"]) plus the global ["share.break_us"]
    histogram. A kill hook detaches surviving shared mappings, so
    killing tenants mid-share leaves the registry's books balanced. *)

open Core

exception Not_bound of { driver : string }
(** A CoW driver was consulted before the system bound its stretch —
    a wiring bug, not a runtime condition. Typed per the PR 5
    convention: the registered printer renders the legacy
    ["Cow: driver not bound"] string. *)

(** {2 Template} *)

type template

val freeze :
  reg:Registry.t -> name:string -> System.domain -> Sd_paged.handle ->
  npages:int -> template
(** Settle and surrender the template stretch's resident pages
    ({!Core.Sd_paged.surrender_resident}) and move their frames to the
    share host ({!Registry.adopt_frame}) — after this the template
    domain may die without stranding tenants. Pages not resident at
    freeze (never touched, or evicted) have no shared frame; tenants
    fault them privately. *)

val shared_frames : template -> int
(** Template frames currently shared (shrinks as last references
    break away). *)

(** {2 Tenants} *)

type tenant

val spawn :
  System.t -> template:template -> tpl_domain:System.domain ->
  name:string -> ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) ->
  ?initial_frames:int -> npages:int -> swap_bytes:int -> qos:Usbs.Qos.t ->
  unit -> (System.domain * (tenant * Stretch.t), System.error) result
(** Fork a tenant: fresh domain under the template's
    {!Core.System.domain_spec} envelope, an [npages] stretch with
    per-PTE rights \{r,m\}, an inner paged stack of its own ([backing]
    selects e.g. the {!Sd_zram} tier) and the CoW driver bound over
    it. On any failure the half-built domain is killed. *)

type stats = {
  c_stat_breaks : int;  (** shares broken by writes *)
  c_stat_shared_faults : int;  (** read faults resolved to shared maps *)
  c_stat_detached : int;  (** mappings dropped by the kill hook *)
  c_stat_shared_now : int;  (** pages currently mapped shared *)
}

val stats : tenant -> stats
