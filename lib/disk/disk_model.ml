open Engine

type op = Read | Write

(* A read-ahead segment: the drive has prefetched (or will trivially
   prefetch, since it streams faster than any one client consumes) the
   blocks from [next] onwards of one sequential stream. A read that
   starts exactly at [next] is a cache hit. *)
type segment = { mutable next : int; mutable lru : int }

type t = {
  p : Disk_params.t;
  segments : segment array;
  (* Durable per-LBA contents — what is actually on the platter. Only
     crash-consistency clients (journal records, swap-slot stamps)
     store bytes here; timing is unaffected. *)
  contents : (int, string) Hashtbl.t;
  mutable cur_cyl : int;
  mutable clock : int; (* LRU tick *)
  mutable cache_hits : int;
  mutable mechanical : int;
  mutable seeks : int;
}

let create () =
  let params = Disk_params.vp3221 in
  { p = params;
    segments = Array.init params.Disk_params.cache_segments
        (fun _ -> { next = -1; lru = 0 });
    contents = Hashtbl.create 1024;
    cur_cyl = 0; clock = 0; cache_hits = 0; mechanical = 0; seeks = 0 }

let params t = t.p

let find_segment t lba =
  let n = Array.length t.segments in
  let rec scan i = if i >= n then None
    else if t.segments.(i).next = lba then Some t.segments.(i)
    else scan (i + 1)
  in
  scan 0

let victim_segment t =
  let v = ref t.segments.(0) in
  Array.iter (fun s -> if s.lru < !v.lru then v := s) t.segments;
  !v

let touch t s =
  t.clock <- t.clock + 1;
  s.lru <- t.clock

let bus_time t nblocks =
  let bytes = float_of_int (nblocks * t.p.Disk_params.block_size) in
  Time.of_us_float (bytes /. t.p.Disk_params.bus_rate *. 1e6)

let media_time t nblocks =
  (* One track per revolution. *)
  nblocks * t.p.Disk_params.rotation / Disk_params.blocks_per_track t.p

(* Rotational position is a pure function of absolute time. *)
let rotational_wait t ~at lba =
  let rot = t.p.Disk_params.rotation in
  let sector = Disk_params.sector_in_track t.p lba in
  let target = sector * rot / Disk_params.blocks_per_track t.p in
  let angle = at mod rot in
  let w = target - angle in
  if w < 0 then w + rot else w

let mechanical_service t ~now ~lba ~nblocks =
  let p = t.p in
  let cyl = Disk_params.cylinder_of_lba p lba in
  let dist = abs (cyl - t.cur_cyl) in
  if dist > 0 then t.seeks <- t.seeks + 1;
  let seek = Disk_params.seek_time p dist in
  let at_cyl = now + p.Disk_params.controller_overhead + seek in
  let rot_wait = rotational_wait t ~at:at_cyl lba in
  (* Track/head switches inside a multi-track transfer are folded into
     the media rate (one track per revolution already accounts for
     them at page-sized transactions). *)
  let xfer = media_time t nblocks in
  t.cur_cyl <- Disk_params.cylinder_of_lba p (lba + nblocks - 1);
  t.mechanical <- t.mechanical + 1;
  p.Disk_params.controller_overhead + seek + rot_wait + xfer

type error = { bad_lba : int; persistent : bool }

let serve t ~now ~op ~lba ~nblocks =
  match op with
  | Write ->
    (* Write cache disabled (the paper's configuration): every write is
       mechanical. A sequential write that arrives after the target
       sector has passed under the head waits most of a revolution. *)
    mechanical_service t ~now ~lba ~nblocks
  | Read ->
    (match find_segment t lba with
    | Some seg ->
      (* Read-ahead hit: data is already (or is being) streamed into
         the segment buffer; cost is command overhead plus transfer,
         paced by the slower of bus and media. *)
      touch t seg;
      seg.next <- lba + nblocks;
      t.cache_hits <- t.cache_hits + 1;
      (* The drive keeps streaming this track; the head follows. *)
      t.cur_cyl <- Disk_params.cylinder_of_lba t.p (lba + nblocks - 1);
      t.p.Disk_params.controller_overhead
      + max (bus_time t nblocks) (media_time t nblocks)
    | None ->
      let dur = mechanical_service t ~now ~lba ~nblocks in
      let seg = victim_segment t in
      touch t seg;
      seg.next <- lba + nblocks;
      dur)

let service_result t ~now ~op ~lba ~nblocks =
  if nblocks <= 0 then invalid_arg "Disk_model.service: nblocks <= 0";
  if lba < 0 || lba + nblocks > t.p.Disk_params.nblocks then
    invalid_arg
      (Printf.sprintf "Disk_model.service: range [%d,%d) out of bounds" lba
         (lba + nblocks));
  let inj_op =
    match op with Read -> Inject.Read | Write -> Inject.Write
  in
  match Inject.disk ~op:inj_op ~lba ~nblocks with
  | Inject.Pass -> Ok (serve t ~now ~op ~lba ~nblocks)
  | Inject.Spike extra -> Ok (serve t ~now ~op ~lba ~nblocks + extra)
  | Inject.Media_error { bad_lba; persistent } ->
    (* The head still travels and the sector is still attempted (for a
       persistent error the drive retries internally, costing at least
       as much as a clean transfer), so the mechanical time is paid. *)
    let dur = serve t ~now ~op ~lba ~nblocks in
    Error (dur, { bad_lba; persistent })

let service t ~now ~op ~lba ~nblocks =
  match service_result t ~now ~op ~lba ~nblocks with
  | Ok dur -> dur
  | Error (_, e) ->
    (* Only reachable under an armed injection plan; hardened callers
       use [service_result]. *)
    failwith
      (Printf.sprintf "Disk_model.service: injected media error at lba %d"
         e.bad_lba)

let store t ~lba s = Hashtbl.replace t.contents lba s
let load t ~lba = Hashtbl.find_opt t.contents lba
let erase t ~lba = Hashtbl.remove t.contents lba

let cache_hits t = t.cache_hits
let mechanical_ops t = t.mechanical
let seeks t = t.seeks

let pp_stats ppf t =
  Format.fprintf ppf "cache-hits=%d mechanical=%d seeks=%d" t.cache_hits
    t.mechanical t.seeks
