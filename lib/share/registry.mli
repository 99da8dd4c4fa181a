(** The shared-frame registry: ownership home for every frame mapped
    into more than one protection domain.

    In the single global address space, sharing a page means several
    stretches' PTEs name one pfn; the RamTab counts those references.
    The registry admits its own {e host} service client (guarantee
    only, never a revocation victim, never killed) and keeps every
    shared frame on that client's stack. Tenants only ever take and
    drop {e references} ({!map}/{!unmap}); the frame itself is freed
    by the host exactly when the last reference goes — so killing a
    tenant can never strand or double-free a shared frame, and
    [release_all_frames] on a dying tenant finds nothing shared on its
    stack. *)

open Engine
open Hw
open Core

type t

type error = Map_failed of Translation.error

val create : System.t -> guarantee:int -> (t, System.error) result
(** Admit the host service client with [guarantee] frames (optimistic
    0 — shared frames are precious; the host must not be picked as a
    revocation victim). *)

val client : t -> Frames.client

val alloc_shared : t -> on_free:(unit -> unit) -> int option
(** Allocate a fresh host-owned frame to share (segment
    materialization). [on_free] runs when the last reference drops and
    the frame is freed — the installer forgets the pfn. The frame
    starts [Unused]; the first {!map} sets refs = 1. *)

val adopt_frame :
  t -> src:Frames.client -> pfn:int -> on_free:(unit -> unit) ->
  (unit, Frames.error) result
(** Take ownership of a settled frame from [src]'s stack (the CoW
    freeze path: a template surrenders its resident pages so its own
    death cannot reclaim what tenants still map). *)

val cancel : t -> pfn:int -> unit
(** Return a never-mapped frame from {!alloc_shared} (materialization
    race loser). *)

val map :
  t -> pdom:Pdom.t -> va:Addr.vaddr -> pfn:int ->
  charge:(Time.span -> unit) -> (unit, error) result
(** Grant [pdom] a shared read-only mapping of [pfn] at [va]; takes
    one RamTab reference. [charge] receives the MMU cost (pass the
    tenant's CPU account, or [ignore] from a kill hook). *)

val unmap :
  t -> pdom:Pdom.t -> va:Addr.vaddr -> reason:[ `Break | `Detach ] ->
  charge:(Time.span -> unit) -> (int, error) result
(** Drop one reference ([`Break]: a CoW write replaced the mapping;
    [`Detach]: the domain is going away). Returns the references
    remaining; at zero the frame is freed through the host and the
    installer's [on_free] hook runs. *)

(** {2 Books} *)

type books = {
  b_installs : int;
  b_frees : int;
  b_grants : int;
  b_breaks : int;
  b_detaches : int;
  b_live_frames : int;  (** frames currently in the registry *)
  b_live_refs : int;  (** RamTab references over those frames *)
}

val books : t -> books

val books_balanced : t -> bool
(** Double-entry: live frames = installs − frees = host-held frames,
    and live references = grants − breaks − detaches. *)
