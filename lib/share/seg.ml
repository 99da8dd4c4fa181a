open Engine
open Hw
open Core

(* A named read-only global segment ("text"): N domains attach, every
   resident page has exactly one physical copy — a registry-owned
   frame each attached domain maps through its own PTEs. First touch
   anywhere materializes the page (one fill sleep, one frame); every
   later fault in any domain is a cheap shared map. Per-domain hit
   and fault attribution goes to Obs.Metrics under the domain's
   label. *)

type t = {
  sg_name : string;
  sg_reg : Registry.t;
  sg_npages : int;
  sg_frames : int option array;  (* page -> the one resident copy *)
  mutable sg_fills : int;
}

(* The per-page materialization delay: fetching the segment's contents
   from wherever "text" lives. *)
let fill = Time.us 50

let create ~reg ~name ~npages () =
  { sg_name = name; sg_reg = reg; sg_npages = npages;
    sg_frames = Array.make npages None; sg_fills = 0 }

let fills t = t.sg_fills

let resident t =
  Array.fold_left (fun a f -> if f = None then a else a + 1) 0 t.sg_frames

(* read + execute, no write; meta so the driver may map *)
let seg_rights = { Rights.r = true; w = false; x = true; m = true }

type attachment = {
  a_seg : t;
  a_env : Stretch_driver.env;
  mutable a_stretch : Stretch.t option;
  a_mapped : bool array;
  a_hit_metric : Obs.Metrics.counter; (* labelled with the domain *)
}

exception Not_bound of { driver : string }

(* Typed per the PR 5 convention; the printer renders the exact
   string the old [failwith] escape produced. *)
let () =
  Printexc.register_printer (function
    | Not_bound { driver } -> Some (driver ^ ": driver not bound")
    | _ -> None)

let the_stretch a =
  match a.a_stretch with
  | Some s -> s
  | None -> raise (Not_bound { driver = "Seg" })

let m_fill = Obs.Metrics.counter "seg.fill"

let map_resident a page =
  match a.a_seg.sg_frames.(page) with
  | None -> false
  | Some pfn ->
    let va = Stretch.page_base (the_stretch a) page in
    (match
       Registry.map a.a_seg.sg_reg ~pdom:a.a_env.Stretch_driver.pdom ~va
         ~pfn ~charge:a.a_env.Stretch_driver.consume_cpu
     with
    | Ok () ->
      a.a_mapped.(page) <- true;
      if !Obs.enabled then Obs.Metrics.inc a.a_hit_metric;
      true
    | Error _ -> false)

let fast a (fault : Fault.t) =
  let s = the_stretch a in
  if not (Stretch.contains s fault.Fault.va) then
    Stretch_driver.Failure "fault outside bound stretch"
  else
    match fault.Fault.kind with
    | Mmu.Access_violation -> Stretch_driver.Failure "read-only segment"
    | Mmu.Unallocated -> Stretch_driver.Failure "unallocated address"
    | Mmu.Page_fault ->
      let page = Stretch.page_index s fault.Fault.va in
      if a.a_mapped.(page) then Stretch_driver.Success (* racing fault *)
      else if map_resident a page then Stretch_driver.Success
      else Stretch_driver.Retry (* needs materialization: worker path *)

(* Materialize the segment page: one frame from the registry, one fill
   delay (the segment's contents coming from wherever "text" lives).
   Concurrent materializers race across the sleep — the loser returns
   its frame and maps the winner's. *)
let full a (fault : Fault.t) =
  let s = the_stretch a in
  if not (Stretch.contains s fault.Fault.va) then
    Stretch_driver.Failure "fault outside bound stretch"
  else
    match fault.Fault.kind with
    | Mmu.Access_violation -> Stretch_driver.Failure "read-only segment"
    | Mmu.Unallocated -> Stretch_driver.Failure "unallocated address"
    | Mmu.Page_fault ->
      let seg = a.a_seg in
      let page = Stretch.page_index s fault.Fault.va in
      if a.a_mapped.(page) then Stretch_driver.Success
      else if map_resident a page then Stretch_driver.Success
      else (
        match Registry.alloc_shared seg.sg_reg
                ~on_free:(fun () -> seg.sg_frames.(page) <- None)
        with
        | None -> Stretch_driver.Failure "segment: out of shared frames"
        | Some pfn ->
          Proc.sleep fill;
          (match seg.sg_frames.(page) with
          | Some _ ->
            (* lost the race while filling *)
            Registry.cancel seg.sg_reg ~pfn
          | None ->
            seg.sg_frames.(page) <- Some pfn;
            seg.sg_fills <- seg.sg_fills + 1;
            if !Obs.enabled then Obs.Metrics.inc m_fill);
          if map_resident a page then Stretch_driver.Success
          else Stretch_driver.Failure "segment: shared map failed")

(* Kill hook: drop this domain's references (the frames stay for the
   other attached domains; the last detach frees them). *)
let detach a =
  match a.a_stretch with
  | None -> ()
  | Some s ->
    Array.iteri
      (fun page m ->
        if m then begin
          ignore
            (Registry.unmap a.a_seg.sg_reg
               ~pdom:a.a_env.Stretch_driver.pdom
               ~va:(Stretch.page_base s page) ~reason:`Detach ~charge:ignore);
          a.a_mapped.(page) <- false
        end)
      a.a_mapped

let driver a =
  { Stretch_driver.name = Printf.sprintf "seg(%s)" a.a_seg.sg_name;
    bind = (fun s -> a.a_stretch <- Some s);
    fast = (fun f -> fast a f);
    full = (fun f -> full a f);
    relinquish = (fun ~want:_ -> 0);  (* no private frames to give *)
    resident_pages =
      (fun () ->
        Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0
          a.a_mapped);
    free_frames = (fun () -> 0) }

let attach t (d : System.domain) =
  match
    System.alloc_stretch d ~global:seg_rights
      ~bytes:(t.sg_npages * Addr.page_size) ()
  with
  | Error msg -> Error (System.Driver_error { reason = msg })
  | Ok stretch ->
    Pdom.clear (Domains.pdom d.System.dom) ~sid:stretch.Stretch.sid;
    let a =
      { a_seg = t; a_env = d.System.env; a_stretch = None;
        a_mapped = Array.make t.sg_npages false;
        a_hit_metric =
          Obs.Metrics.counter ~label:d.System.env.Stretch_driver.domain_name
            "seg.hit" }
    in
    System.bind_driver d stretch (driver a);
    Domains.on_kill d.System.dom (fun () -> detach a);
    Ok (a, stretch)

let mapped a =
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 a.a_mapped
