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
  consume_cpu : Time.span -> unit;
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

let map_page env va ~pfn =
  match
    Translation.map env.translation ~pdom:env.pdom ~domain:env.domain_id ~va
      ~pfn
  with
  | Ok cost -> env.consume_cpu cost
  (* Drivers only map/unmap addresses inside their own bound stretch
     with frames they own; a translation refusal is a driver bug, so
     it fails loudly rather than returning a result no caller could
     act on. *)
  | Error e ->
    failwith
      (Format.asprintf "%s: map %a failed: %a" env.domain_name Addr.pp_vaddr
         va Translation.pp_error e)

let unmap_page env va =
  match
    Translation.unmap env.translation ~pdom:env.pdom ~domain:env.domain_id ~va
  with
  | Ok (pte, cost) ->
    env.consume_cpu cost;
    pte
  | Error e ->
    failwith
      (Format.asprintf "%s: unmap %a failed: %a" env.domain_name Addr.pp_vaddr
         va Translation.pp_error e)
