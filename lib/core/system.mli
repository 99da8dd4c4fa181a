(** System assembly: boots a simulated Nemesis machine.

    Wires together the simulated hardware (MMU, RamTab, disk), the
    system-domain services (stretch allocator, frames allocator,
    high-level translation), the user-safe backing store (USD + SFS)
    and the CPU scheduler, and provides domain creation with the full
    set of per-domain machinery (protection domain, frame stack,
    MMEntry, fault channel, revocation wiring).

    The disk is split into two partitions, as in the paper's
    experiments: a swap partition managed by the SFS and a file-system
    partition that Figure 9's file-system client reads directly through
    the USD. *)

open Engine
open Hw
open Disk

type config = {
  seed : int;
  main_memory_mb : int;
  page_table : [ `Linear | `Guarded ];
  usd_rollover : bool;
  revocation_deadline : Time.span;
  sfs_journal_blocks : int;
      (** bloks reserved at the head of the swap partition for the
          SFS's crash-consistency intent journal (0 = no journal, the
          seed behaviour) *)
}
(** Every machine has a 32-bit virtual address space, the paper's cost
    model ({!Hw.Cost.nemesis}) and its disk ({!Disk.Disk_params.vp3221}). *)

val default_config : config
(** 64 MB of main memory, linear page table, roll-over enabled,
    T = 100 ms, no journal. *)

type t

(** Typed errors for domain admission and stretch binding. The
    printers render the exact messages the stringly API used to
    return, so experiments and reports are unchanged. *)
type error =
  | Cpu_admission of { reason : string }
      (** CPU admission control refused (utilisation Σ s/p would
          exceed 1, or a malformed contract). *)
  | Frames_admission of Frames.error
  | Usd_admission of { reason : string }
  | Swap_open of { name : string; error : Usbs.Sfs.open_error }
  | No_detached_swap of { name : string }
  | Swap_attached of { name : string }
  | Store_error of { reason : string }
  | Driver_error of { reason : string }

val error_message : error -> string

type domain_spec = {
  sp_name : string;
  sp_cpu_period : Time.span;
  sp_cpu_slice : Time.span;
  sp_guarantee : int;
  sp_optimistic : int;
}
(** A domain's admission contract, captured at {!add_domain} — what
    {!respawn} re-admits a killed domain's successor under. *)

type domain = private {
  dom : Domains.t;
  mm : Mm_entry.t;
  frames_client : Frames.client;
  env : Stretch_driver.env;
  dspec : domain_spec;
  sys : t;
}

val create : ?config:config -> unit -> t

(** {2 Accessors} *)

val sim : t -> Sim.t
val mmu : t -> Mmu.t
val translation : t -> Translation.t

(** The frame-ownership table — read-only introspection (e.g. the
    chaos experiment verifying a killed domain's frames were
    reclaimed). *)
val ramtab : t -> Ramtab.t
val stretch_allocator : t -> Stretch_allocator.t
val frames : t -> Frames.t
val disk : t -> Disk_model.t
val usd : t -> Usbs.Usd.t
val sfs : t -> Usbs.Sfs.t
val file_store : t -> Usbs.File_store.t
val domains : t -> domain list

val fs_partition : t -> int * int
(** [(first_lba, nblocks)] of the file-system partition. *)

val run : ?until:Time.t -> t -> unit
(** Run the simulation (see {!Sim.run}). *)

(** {2 Domains} *)

val add_domain :
  t -> name:string -> ?cpu_period:Time.span -> ?cpu_slice:Time.span ->
  guarantee:int -> optimistic:int -> unit -> (domain, error) result
(** Admission control may refuse: [Cpu_admission] when CPU utilisation
    would exceed 1, [Frames_admission Admission_overcommit] when Σg
    would exceed main memory. *)

val kill_domain : t -> domain -> unit

val spec : domain -> domain_spec

val respawn : t -> domain_spec -> (domain, error) result
(** Re-admit a fresh domain under a dead one's original contract: same
    name, CPU period/slice and frame guarantee/optimistic allocation.
    Goes through the same admission control as {!add_domain} (it can
    refuse if the dead domain's share has been given away). *)

val admit_service :
  t -> guarantee:int -> optimistic:int ->
  (int * Frames.client, error) result
(** A bare frames contract with no schedulable domain behind it — the
    share host and the compressed-memory pool of [lib/share] hold
    frames this way. Returns the fresh owner id (from the domain-id
    counter) and the client. A service client holding optimistic
    frames must install a revocation handler
    ({!Frames.set_revocation_handler}); there is no MMEntry to do it
    for them. *)

val spawn_cow :
  t -> template:domain -> name:string ->
  fork:(domain -> ('a, error) result) ->
  (domain * 'a, error) result
(** Fork a tenant from a template: admit a fresh domain under the
    template's {!domain_spec} envelope (its own name), then hand it to
    [fork] to build the copy-on-write address space (see
    [Share.Cow.spawn]). If [fork] fails the half-built domain is
    killed and its resources released. *)

val bind_driver : domain -> Stretch.t -> Stretch_driver.t -> unit
(** Bind an application-built stretch driver (the composed CoW /
    shared-segment drivers of [lib/share]). Replaces any existing
    binding for the stretch, letting an outer driver interpose on an
    inner one bound moments before. *)

(** {2 Stretch conveniences} *)

val alloc_stretch :
  domain -> ?base:Addr.vaddr -> ?global:Rights.t -> bytes:int -> unit ->
  (Stretch.t, string) result

val free_stretch : domain -> Stretch.t -> unit

val bind_nailed : domain -> Stretch.t -> (Stretch_driver.t, error) result

val bind_physical :
  domain -> ?prealloc:int -> Stretch.t -> (Stretch_driver.t, error) result

val bind_paged :
  domain -> ?forgetful:bool -> ?initial_frames:int ->
  ?policy:Policy.Spec.t -> ?spare_pages:int -> ?restartable:bool ->
  ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) ->
  swap_bytes:int -> qos:Usbs.Qos.t -> Stretch.t -> unit ->
  (Stretch_driver.t * Sd_paged.handle, error) result
(** Opens a swap file on the SFS (negotiating the disk QoS), creates a
    paged driver under [policy] (default: the seed FIFO/write-through
    behaviour) and binds it. [spare_pages] reserves bad-blok remap
    spares in the swap extent (see {!Usbs.Sfs.open_swap}).
    [restartable] (default false) makes the swapfile survive the
    domain's death {e detached} instead of closed, so a {!respawn}ed
    incarnation can {!bind_paged_restored}.

    [backing] is applied to the freshly opened swapfile and the
    resulting {!Tier.Backing.t} carries the driver's data path — pass
    [(fun swap -> Tier.Fleet.backing (Tier.Fleet.attach fleet … ~swap ()))]
    to page through the disaggregated-memory tier. Without it the
    driver pages the swapfile itself ({!Tier.Backing.of_sfs}). The
    swapfile remains System-owned (closed or detached on domain
    death). *)

val bind_paged_restored :
  domain -> ?initial_frames:int -> ?policy:Policy.Spec.t ->
  qos:Usbs.Qos.t -> Stretch.t -> unit ->
  (Stretch_driver.t * Sd_paged.handle, error) result
(** The restart path: reattach the detached swapfile the domain's
    previous incarnation left behind (found by name — the domain must
    be {!respawn}ed under the same name), and bind a paged driver that
    re-adopts the journal-committed (page, slot) image. The restored
    pages fault their previous contents back in from swap on first
    touch; run {!Usbs.Sfs.remount} first so the committed image is the
    recovered one. *)

type mapping =
  | Shared  (** dirty pages are written back to the file *)
  | Private
      (** copy-on-write: the file is never written; each page's first
          write goes to an anonymous copy file, which serves the page
          from then on *)

val bind_mapped :
  domain -> mode:mapping -> ?initial_frames:int ->
  file:Usbs.File_store.file -> qos:Usbs.Qos.t -> Stretch.t -> unit ->
  (Stretch_driver.t * (unit -> Tier.Backing.file_io), error) result
(** Map a file-store file behind the stretch: the paged driver
    ({!Sd_paged}, default policy) over {!Tier.Backing.of_file}, with
    every page of the stretch starting on the file at its own slot. The
    data path runs on a USD client admitted under [qos], the domain's
    own guarantee. A [Private] mapping also allocates the copy file and
    charges the domain {!Hw.Cost.page_copy} per page copied. Eviction,
    cleaning and revocation are the paged driver's; so is an
    unrecoverable store error, which loses the page (a later fault on
    it is a domain fault) and leaves the domain running. The second
    result reads the mapping's file and copy traffic. *)
