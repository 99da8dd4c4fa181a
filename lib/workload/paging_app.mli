(** The paper's test application.

    Creates a paged stretch driver with a tiny amount of physical
    memory (16 KB — two frames) and 16 MB of swap, allocates a 4 MB
    stretch, binds it, and then:

    - initialises by sequentially reading every byte (each page demand
      zeroed);
    - for the {b paging-in} experiment (Fig. 7): writes every byte
      (populating the swap file), then loops reading pages following
      the configured {!pattern};
    - for the {b paging-out} experiment (Fig. 8): runs a forgetful
      stretch driver and loops writing pages.

    A trivial amount of computation is charged per page; a watch thread
    logs bytes processed every 5 seconds. By default no pre-paging is
    performed despite the predictable reference pattern — pass
    [?policy] to exercise the pluggable paging policies (the app is the
    harness for the policy-compare experiment). *)

open Engine
open Core

type mode = Paging_in | Paging_out

type pattern =
  | Sequential  (** wrap-around linear scan (the paper's workload) *)
  | Random  (** uniform page per access *)
  | Hotspot
      (** 90 % of accesses in the first eighth of the stretch, the
          rest uniform — a cacheable working set *)

val pattern_name : pattern -> string
(** ["seq"], ["rand"] or ["hot"]. *)

type t

val start :
  System.t -> name:string -> mode:mode -> qos:Usbs.Qos.t ->
  ?vm_bytes:int -> ?phys_frames:int -> ?optimistic:int -> ?swap_bytes:int ->
  ?cpu_slice:Time.span -> ?policy:Policy.Spec.t -> ?spare_pages:int ->
  ?backing:(Usbs.Sfs.swapfile -> Tier.Backing.t) -> ?pattern:pattern ->
  unit -> (t, string) result
(** Each page touched is charged 20 µs of computation; the sampler
    reads the throughput every 5 s. [optimistic] (default 0)
    registers an optimistic frame quota beyond the guarantee —
    revocation-storm fodder for the chaos experiment. [spare_pages]
    reserves bad-blok remap spares in the swap extent. [backing]
    passes through to {!System.bind_paged} — page through a tiered
    backing store instead of straight to the swapfile. *)

val domain : t -> System.domain
val bytes_processed : t -> int
val sampler : t -> Sampler.t
val sustained_mbit : t -> float
(** Mean Mbit/s over samples taken after the measured loop began
    ([nan] while still initialising). *)

val in_measured_loop : t -> bool
val paging_info : t -> Sd_paged.info
val policy_name : t -> string

val swap_extent : t -> int * int
(** [(first_lba, nblocks)] of the app's swap extent — what a chaos
    plan scopes its disk faults to. *)

val measured_accesses : t -> int
(** Page accesses made since the measured loop began (0 before). *)

val measured_info : t -> Sd_paged.info
(** Driver statistics accumulated since the measured loop began, i.e.
    with initialisation and swap population subtracted out —
    [measured_info.page_ins / measured_accesses] is the measured-loop
    miss rate. *)

val stop : t -> unit
(** Kill the application's domain. *)
