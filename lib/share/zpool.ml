open Engine
open Hw
open Core

let page_bytes = Addr.page_size

(* -- compression model ------------------------------------------------ *)

(* Run-length encoding: a sequence of (length, byte) pairs, runs capped
   at 255. Real enough for the round-trip property (decompress is the
   exact inverse) while keeping the size model a pure function of the
   page's content entropy: low-entropy pages (long runs) compress to a
   few dozen bytes, high-entropy pages blow past the page size and are
   declared incompressible. *)
let compress s =
  let n = String.length s in
  let b = Buffer.create 256 in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let j = ref (!i + 1) in
    while !j < n && s.[!j] = c && !j - !i < 255 do incr j done;
    Buffer.add_char b (Char.chr (!j - !i));
    Buffer.add_char b c;
    i := !j
  done;
  Buffer.contents b

let decompress z =
  let n = String.length z in
  if n mod 2 <> 0 then invalid_arg "Zpool.decompress: truncated stream";
  let b = Buffer.create page_bytes in
  let i = ref 0 in
  while !i < n do
    let count = Char.code z.[!i] in
    let c = z.[!i + 1] in
    for _ = 1 to count do
      Buffer.add_char b c
    done;
    i := !i + 2
  done;
  Buffer.contents b

(* Deterministic page contents keyed on (key, version): the entropy
   class is a pure function of the key, so a given slot always
   compresses the same way, while the version makes each overwrite
   distinguishable (the round-trip test faults back the latest). *)
let synth ~key ~version =
  let cls = Hashtbl.hash key mod 4 in
  let state = ref (Hashtbl.hash (key, version, "zpool") lor 1) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let b = Bytes.make page_bytes '\000' in
  (match cls with
  | 0 -> () (* zero page: maximally compressible *)
  | 1 ->
    (* long runs: compresses to ~1% *)
    let i = ref 0 in
    while !i < page_bytes do
      let len = min 192 (page_bytes - !i) in
      Bytes.fill b !i len (Char.chr (next () land 0xff));
      i := !i + len
    done
  | 2 ->
    (* short runs: ~25% of the page *)
    let i = ref 0 in
    while !i < page_bytes do
      let len = min 8 (page_bytes - !i) in
      Bytes.fill b !i len (Char.chr (next () land 0xff));
      i := !i + len
    done
  | _ ->
    (* pseudo-random: incompressible under RLE *)
    for i = 0 to page_bytes - 1 do
      Bytes.set b i (Char.chr (next () land 0xff))
    done);
  Bytes.unsafe_to_string b

(* -- the pool --------------------------------------------------------- *)

type entry = { e_data : string; e_frame : int }

type frame_rec = {
  f_pfn : int;
  mutable f_used : int;
  mutable f_keys : string list;
}

type t = {
  frames : Frames.t;
  client : Frames.client;
  ramtab : Ramtab.t;
  mutable budget : int;
  entries : (string, entry) Hashtbl.t;
  (* Held frames oldest-first: shedding frees whole frames FIFO, which
     keeps eviction deterministic and cheap (no compaction across
     frames; entries inside a frame are assumed compacted). *)
  mutable held : frame_rec list;
  mutable stored : int;
  mutable incompressible : int;
  mutable overflow : int;
  mutable dropped : int;
  mutable shed_frames : int;
  mutable bursts : int;
}

(* Only the frames whose compressed payload halves (or better) earn a
   zpool slot; storing near-incompressible pages would just displace
   two compressible ones. *)
let max_entry_bytes = page_bytes / 2

let frames_held t = List.length t.held

type stats = {
  z_stored : int;
  z_incompressible : int;
  z_overflow : int;
  z_dropped : int;
  z_shed_frames : int;
  z_bursts : int;
}

let stats t =
  { z_stored = t.stored; z_incompressible = t.incompressible;
    z_overflow = t.overflow; z_dropped = t.dropped;
    z_shed_frames = t.shed_frames; z_bursts = t.bursts }

let metric c = if !Obs.enabled then Obs.Metrics.inc c
let m_shed_frame = Obs.Metrics.counter "zpool.shed_frame"
let m_revoked_frame = Obs.Metrics.counter "zpool.revoked_frame"
let m_incompressible = Obs.Metrics.counter "zpool.incompressible"
let m_overflow = Obs.Metrics.counter "zpool.overflow"
let m_stored = Obs.Metrics.counter "zpool.stored"

let drop_frame_entries t fr =
  List.iter
    (fun k ->
      Hashtbl.remove t.entries k;
      t.dropped <- t.dropped + 1)
    fr.f_keys;
  fr.f_keys <- [];
  fr.f_used <- 0

(* Free the oldest frame back to the allocator, dropping its entries
   (their durable copy is below us: the zpool is write-through). *)
let shed_one t =
  match t.held with
  | [] -> false
  | fr :: rest ->
    t.held <- rest;
    drop_frame_entries t fr;
    Ramtab.set_state t.ramtab ~pfn:fr.f_pfn Ramtab.Unused;
    Frames.free t.frames t.client fr.f_pfn;
    t.shed_frames <- t.shed_frames + 1;
    metric m_shed_frame;
    true

let shed_to_budget t =
  let freed = ref 0 in
  while List.length t.held > t.budget && shed_one t do
    incr freed
  done;
  !freed

let set_budget t n =
  t.budget <- max 0 n;
  shed_to_budget t

(* Revocation: make the top [k] stack frames unused WITHOUT returning
   them through [Frames.free] — the allocator's verify pass reclaims
   them itself. Every compressed entry is clean by construction
   (write-through), so shedding is synchronous and always meets the
   deadline. *)
let expose_for_revocation t ~k =
  let stack = Frames.frame_stack t.client in
  let n = ref 0 in
  while !n < k && t.held <> [] do
    (match t.held with
    | fr :: rest ->
      t.held <- rest;
      drop_frame_entries t fr;
      Ramtab.set_state t.ramtab ~pfn:fr.f_pfn Ramtab.Unused;
      Frame_stack.move_to_top stack fr.f_pfn;
      t.shed_frames <- t.shed_frames + 1;
      metric m_revoked_frame
    | [] -> ());
    incr n
  done

(* The budget-shrink gremlin (Inject.zpool_pressure): every period,
   shrink the budget by zp_shrink frames — shedding down to it — hold,
   then restore. Spawned only when a plan is armed at create time, so
   unconfigured runs schedule no extra events. *)
let spawn_pressure t sim zp =
  ignore
    (Proc.spawn ~name:"zpool.pressure" sim (fun () ->
         let rec loop () =
           Proc.sleep zp.Inject.zp_period;
           let saved = t.budget in
           let before = frames_held t in
           ignore (set_budget t (max 0 (saved - zp.Inject.zp_shrink)));
           let shed = before - frames_held t in
           t.bursts <- t.bursts + 1;
           Inject.note_zpool_burst ~shed;
           Proc.sleep zp.Inject.zp_hold;
           t.budget <- saved;
           loop ()
         in
         loop ()))

let create ~sim ~frames ~client ~ramtab ~budget () =
  if budget < 0 then invalid_arg "Zpool.create: negative budget";
  let t =
    { frames; client; ramtab; budget; entries = Hashtbl.create 256;
      held = []; stored = 0; incompressible = 0; overflow = 0; dropped = 0;
      shed_frames = 0; bursts = 0 }
  in
  Frames.set_revocation_handler client (fun ~k ~deadline:_ ->
      expose_for_revocation t ~k;
      Frames.revocation_ready frames client);
  (match Inject.zpool_pressure () with
  | Some zp when zp.Inject.zp_shrink > 0 -> spawn_pressure t sim zp
  | _ -> ());
  t

let drop t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.entries key;
    (match List.find_opt (fun f -> f.f_pfn = e.e_frame) t.held with
    | None -> ()
    | Some fr ->
      fr.f_keys <- List.filter (fun k -> k <> key) fr.f_keys;
      fr.f_used <- fr.f_used - String.length e.e_data;
      if fr.f_keys = [] then begin
        (* Empty frame: return it rather than hold dead budget. *)
        t.held <- List.filter (fun f -> f != fr) t.held;
        Ramtab.set_state t.ramtab ~pfn:fr.f_pfn Ramtab.Unused;
        Frames.free t.frames t.client fr.f_pfn
      end)

(* First-fit over held frames, newest last; a miss grows the pool if
   the budget (and the allocator) allows. Zpool frames are [Nailed] so
   a transparent revocation pass cannot silently steal the compressed
   contents — revocation goes through [expose_for_revocation]. *)
let place t size =
  match List.find_opt (fun f -> f.f_used + size <= page_bytes) t.held with
  | Some fr -> Some fr
  | None ->
    if frames_held t >= t.budget then None
    else (
      match Frames.alloc t.frames t.client with
      | None -> None
      | Some pfn ->
        Ramtab.set_state t.ramtab ~pfn Ramtab.Nailed;
        let fr = { f_pfn = pfn; f_used = 0; f_keys = [] } in
        t.held <- t.held @ [ fr ];
        Some fr)

let put t ~key ~data =
  drop t ~key;
  let z = compress data in
  let size = String.length z in
  if size > max_entry_bytes then begin
    t.incompressible <- t.incompressible + 1;
    metric m_incompressible;
    `Incompressible
  end
  else
    match place t size with
    | None ->
      t.overflow <- t.overflow + 1;
      metric m_overflow;
      `No_space
    | Some fr ->
      fr.f_used <- fr.f_used + size;
      fr.f_keys <- key :: fr.f_keys;
      Hashtbl.replace t.entries key { e_data = z; e_frame = fr.f_pfn };
      t.stored <- t.stored + 1;
      metric m_stored;
      `Stored

let get t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e -> Some (decompress e.e_data)
