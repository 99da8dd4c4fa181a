(** Stretch drivers: unprivileged, application-level objects that
    provide the backing for stretches.

    A driver acquires and manages its own physical frames (from the
    frames allocator, under its domain's contract) and installs
    mappings through the validated low-level translation interface.
    Fault handling is two-phase, mirroring Figure 5 of the paper:

    - [fast] is invoked from the notification handler, a restricted
      environment where inter-domain communication is impossible. It
      may map a page from an already-held free frame and return
      [Success], or return [Retry] to punt to a worker thread.
    - [full] is invoked from a memory-management-entry worker thread
      where blocking and IDC (frames allocator, USBS) are allowed.

    [relinquish] supports the revocation protocol: arrange that up to
    [want] frames are unused and sitting on top of the domain's frame
    stack (cleaning dirty pages first if there is a backing store). *)

open Engine
open Hw

type result = Success | Retry | Failure of string

type env = {
  domain_id : int;
  domain_name : string;
  pdom : Pdom.t;
  translation : Translation.t;
  frames : Frames.t;
  frames_client : Frames.client;
  consume_cpu : Time.span -> unit;  (** charge the owning domain *)
  assert_idc_allowed : string -> unit;
  cost : Cost.t;
}

type t = {
  name : string;
  bind : Stretch.t -> unit;
  fast : Fault.t -> result;
  full : Fault.t -> result;
  relinquish : want:int -> int;
  resident_pages : unit -> int;
  free_frames : unit -> int;
}

(** {2 Shared helpers for driver implementations} *)

val map_page :
  env -> Addr.vaddr -> pfn:int -> unit
(** Validated map + cost charge; raises [Failure] on a translation
    error (a driver bug — it must hold meta and own the frame). *)

val unmap_page : env -> Addr.vaddr -> Pte.t
(** Validated unmap + cost charge; returns the previous PTE. *)
