(** The frames allocator: central physical-memory allocation with
    per-domain contracts and application-controlled revocation.

    Each client domain is admitted with a service contract [(g, o)] —
    quotas of {e guaranteed} and {e optimistic} frames. Admission
    control keeps Σg no larger than main memory, so every guarantee can
    be met simultaneously. While a domain holds fewer than [g] frames,
    an allocation request is guaranteed to succeed (possibly after
    revoking optimistically allocated frames from another domain);
    beyond that, frames are granted optimistically while free memory
    lasts.

    Revocation always takes from the {e top} of the victim's frame
    stack. If the top frames are unused it is {b transparent} — the
    allocator simply reclaims them. Otherwise it is {b intrusive}: the
    victim receives a revocation notification asking it to make [k]
    frames unused by a deadline (generous — cleaning dirty pages may
    need disk writes); when the victim signals ready, the allocator
    verifies and reclaims. A victim that misses the deadline, or
    replies with frames still in use, is killed and all its frames
    reclaimed. *)

open Engine
open Hw

type t

type client

(** Typed allocation/admission errors. [pp_error]/[error_message]
    render the human-readable strings the API used to return. *)
type error =
  | Negative_quota
  | Admission_overcommit of { requested : int; available : int }
      (** [requested] guaranteed frames were asked for but only
          [available] remain unguaranteed. *)
  | Frame_in_use of { pfn : int }
  | Quota_exhausted of { held : int; quota : int }

val pp_error : Format.formatter -> error -> unit
val error_message : error -> string

val create :
  ?revocation_deadline:Time.span -> Sim.t -> Ramtab.t -> nframes:int -> t
(** Manage [nframes] physical frames (PFNs [0 .. nframes-1]).
    [revocation_deadline] is the paper's T, default 100 ms. *)

val admit :
  t -> domain:int -> guarantee:int -> optimistic:int ->
  (client, error) result
(** Refused ([Admission_overcommit]) if Σ guarantees would exceed the
    number of frames. *)

val retire : t -> client -> unit
(** Release the contract and every frame the client still holds (used
    for clean shutdown; killing is internal). *)

val set_revocation_handler :
  client -> (k:int -> deadline:Time.t -> unit) -> unit
(** Invoked (from the allocator's context) to deliver a revocation
    notification; the domain must arrange for the top [k] stack frames
    to be unused and then call {!revocation_ready}. *)

val set_kill_handler : t -> (int -> unit) -> unit
(** Called with the domain id when a domain flunks the revocation
    protocol. *)

val alloc : t -> client -> int option
(** Allocate one frame (default policy); may block (revocation). [None]
    only when the client is over [g + o] or memory is exhausted beyond
    what its guarantee covers. The frame is recorded in the RamTab and
    pushed on top of the client's frame stack. *)

val free : t -> client -> int -> unit
(** Voluntarily return a frame. It must be unused (unmapped) in the
    RamTab. *)

val transfer : t -> src:client -> dst:client -> int -> (unit, error) result
(** Move a settled (unmapped, unshared) frame from [src]'s stack to
    [dst]'s, transferring RamTab ownership without a trip through the
    free pool. Used when a frozen CoW template surrenders its resident
    image to the share host. [Frame_in_use] if the frame is still
    mapped or shared; [Quota_exhausted] if [dst] is at quota. *)

val revocation_ready : t -> client -> unit
(** The domain's reply that the top frames of its stack may now be
    reclaimed. *)

(** {2 Introspection} *)

val frame_stack : client -> Frame_stack.t
val guarantee : client -> int
val held : client -> int

val is_live : client -> bool
val free_frames : t -> int
val total_frames : t -> int
val guaranteed_total : t -> int
val revocations : t -> int
(** Count of intrusive revocation rounds performed. *)

val transparent_revocations : t -> int
