(** Memory-fault records.

    On a fault the kernel saves the faulting context, records the fault
    details where the domain can see them, and sends an event to the
    faulting domain — that is the {e whole} of the kernel's involvement
    (self-paging principle 3). The faulting thread blocks on the
    [resolved] ivar; the domain's memory-management entry fills it once
    a stretch driver has dealt with the fault. *)

open Engine
open Hw

type outcome =
  | Resolved
  | Failed of string
      (** The domain could not satisfy its own fault (no safety net). *)

type t = {
  va : Addr.vaddr;
  access : Mmu.access;
  kind : Mmu.fault_kind;
  sid : int option;  (** stretch id, when the address lies in one *)
  raised_at : Time.t;
  resolved : outcome Sync.Ivar.t;
  mutable span : Obs.Span.t;
      (** Root observability span for this fault's resolution
          ({!Obs.Span.none} when tracing is off); child spans
          (activation, dispatch, USD transactions) link to it. *)
}

exception Unresolved of t * string
(** Raised in the faulting thread when the fault could not be
    resolved. *)

val make :
  va:Addr.vaddr -> access:Mmu.access -> kind:Mmu.fault_kind -> sid:int option ->
  now:Time.t -> t

val pp : Format.formatter -> t -> unit
