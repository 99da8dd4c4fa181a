open Engine
open Hw

type outcome = Resolved | Failed of string

type t = {
  va : Addr.vaddr;
  access : Mmu.access;
  kind : Mmu.fault_kind;
  sid : int option;
  raised_at : Time.t;
  resolved : outcome Sync.Ivar.t;
  mutable span : Obs.Span.t;
}

exception Unresolved of t * string

let make ~va ~access ~kind ~sid ~now =
  { va; access; kind; sid; raised_at = now; resolved = Sync.Ivar.create ();
    span = Obs.Span.none }

let pp_access ppf = function
  | `Read -> Format.pp_print_string ppf "read"
  | `Write -> Format.pp_print_string ppf "write"
  | `Execute -> Format.pp_print_string ppf "exec"

let pp ppf t =
  Format.fprintf ppf "%a at %a (%a, sid=%s)" Mmu.pp_fault_kind t.kind
    Addr.pp_vaddr t.va pp_access t.access
    (match t.sid with Some s -> string_of_int s | None -> "-")
