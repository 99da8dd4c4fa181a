open Hw
open Core

(* The shared-frame registry: one host service client owns every
   frame that is mapped into more than one protection domain (CoW
   template pages, read-only segment pages). Keeping shared frames on
   a never-killed host stack is what makes domain death safe — a
   killed tenant only ever *unmaps* (dropping a reference); the frame
   itself is freed by the host exactly when the last reference goes. *)

type t = {
  sys : System.t;
  client : Frames.client;
  (* live shared frames -> cleanup run when the frame is freed *)
  by_pfn : (int, unit -> unit) Hashtbl.t;
  mutable installs : int;
  mutable frees : int;
  mutable grants : int;
  mutable breaks : int;
  mutable detaches : int;
}

type error = Map_failed of Translation.error

let create sys ~guarantee =
  match System.admit_service sys ~guarantee ~optimistic:0 with
  | Error e -> Error e
  | Ok (_, client) ->
    Ok
      { sys; client; by_pfn = Hashtbl.create 64; installs = 0;
        frees = 0; grants = 0; breaks = 0; detaches = 0 }

let client t = t.client

let metric c = if !Obs.enabled then Obs.Metrics.inc c
let m_install = Obs.Metrics.counter "share.install"
let m_grant = Obs.Metrics.counter "share.grant"
let m_break = Obs.Metrics.counter "share.break"
let m_detach = Obs.Metrics.counter "share.detach"

(* Fill a fresh host-owned frame to share. The frame starts [Unused]
   on the host's stack; the first map_shared flips it Mapped and sets
   refs=1. *)
let alloc_shared t ~on_free =
  match Frames.alloc (System.frames t.sys) t.client with
  | None -> None
  | Some pfn ->
    Hashtbl.replace t.by_pfn pfn on_free;
    t.installs <- t.installs + 1;
    metric m_install;
    Some pfn

(* Adopt a settled frame from a tenant's stack (the CoW freeze path:
   the template surrenders its resident pages and the registry takes
   ownership so the template's own death cannot reclaim them). *)
let adopt_frame t ~src ~pfn ~on_free =
  match Frames.transfer (System.frames t.sys) ~src ~dst:t.client pfn with
  | Error e -> Error e
  | Ok () ->
    Hashtbl.replace t.by_pfn pfn on_free;
    t.installs <- t.installs + 1;
    metric m_install;
    Ok ()

(* Race loser: an allocated frame that never got mapped (another
   materializer won while we slept filling it). *)
let cancel t ~pfn =
  Hashtbl.remove t.by_pfn pfn;
  Frames.free (System.frames t.sys) t.client pfn;
  t.frees <- t.frees + 1

let map t ~pdom ~va ~pfn ~charge =
  match Translation.map_shared (System.translation t.sys) ~pdom ~va ~pfn with
  | Error e -> Error (Map_failed e)
  | Ok cost ->
    charge cost;
    t.grants <- t.grants + 1;
    metric m_grant;
    Ok ()

(* Drop one domain's reference. When the last reference goes the
   frame returns to the allocator through the host client and the
   installer's [on_free] hook runs (so a template/segment forgets the
   now-dead pfn). *)
let unmap t ~pdom ~va ~reason ~charge =
  match Translation.unmap_shared (System.translation t.sys) ~pdom ~va with
  | Error e -> Error (Map_failed e)
  | Ok (pte, remaining, cost) ->
    charge cost;
    (match reason with
    | `Break ->
      t.breaks <- t.breaks + 1;
      metric m_break
    | `Detach ->
      t.detaches <- t.detaches + 1;
      metric m_detach);
    if remaining = 0 then begin
      let pfn = Pte.pfn pte in
      (match Hashtbl.find_opt t.by_pfn pfn with
      | Some on_free ->
        Hashtbl.remove t.by_pfn pfn;
        on_free ()
      | None -> ());
      Frames.free (System.frames t.sys) t.client pfn;
      t.frees <- t.frees + 1
    end;
    Ok remaining

type books = {
  b_installs : int;
  b_frees : int;
  b_grants : int;
  b_breaks : int;
  b_detaches : int;
  b_live_frames : int;  (** frames currently in the registry *)
  b_live_refs : int;  (** RamTab references over those frames *)
}

let books t =
  let live_refs =
    Hashtbl.fold
      (fun pfn _ acc -> acc + Ramtab.refs (System.ramtab t.sys) ~pfn)
      t.by_pfn 0
  in
  { b_installs = t.installs; b_frees = t.frees; b_grants = t.grants;
    b_breaks = t.breaks; b_detaches = t.detaches;
    b_live_frames = Hashtbl.length t.by_pfn; b_live_refs = live_refs }

(* The double-entry check: every installed frame is either freed or
   still in the registry AND on the host's stack; every granted
   reference is either dropped (break/detach) or still counted in the
   RamTab. *)
let books_balanced t =
  let b = books t in
  b.b_live_frames = b.b_installs - b.b_frees
  && Frames.held t.client = b.b_live_frames
  && b.b_live_refs = b.b_grants - b.b_breaks - b.b_detaches
