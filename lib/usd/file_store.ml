open Engine
open Disk

type file = {
  fname : string;
  ext : Extents.extent;
  page_blocks : int;
  mutable deleted : bool;
}

type t = {
  u : Usd.t;
  mutable extents : Extents.t;
  files : (string, file) Hashtbl.t;
  page_blocks : int;
  region_first : int;
  region_len : int;
  journal : Journal.t option;
  mutable jdegraded : bool;
}

let page_bytes = 8192

let default_journal_qos =
  Qos.make ~period:(Time.ms 200) ~slice:(Time.ms 10) ()

let create ?(journal_blocks = 0) ?journal_qos ?(first_block = 0) ?nblocks u =
  let params = Disk_model.params (Usd.disk u) in
  let total = params.Disk_params.nblocks in
  let nblocks = match nblocks with Some n -> n | None -> total - first_block in
  if first_block < 0 || nblocks <= 0 || first_block + nblocks > total then
    invalid_arg "File_store.create: region out of bounds";
  if journal_blocks < 0 || journal_blocks >= nblocks then
    invalid_arg "File_store.create: journal_blocks out of range";
  let extents = Extents.create ~first:first_block ~len:nblocks in
  let journal =
    if journal_blocks = 0 then None
    else begin
      (match Extents.alloc_at extents ~start:first_block ~len:journal_blocks with
      | Some _ -> ()
      | None -> assert false (* fresh region *));
      let qos =
        match journal_qos with Some q -> q | None -> default_journal_qos
      in
      match Usd.admit u ~name:"fs.journal" ~qos () with
      | Error e -> invalid_arg ("File_store.create: journal client: " ^ e)
      | Ok client ->
          Some (Journal.create ~u ~client ~first:first_block
                  ~nblocks:journal_blocks)
    end
  in
  { u; extents;
    files = Hashtbl.create 16;
    page_blocks = page_bytes / params.Disk_params.block_size;
    region_first = first_block; region_len = nblocks;
    journal; jdegraded = false }

let free_blocks t = Extents.free_blocks t.extents
let journaled t = t.journal <> None

let m_journal_degraded = Obs.Metrics.counter "fs.journal_degraded"
let recovery = Inject.recovery "file_store"

(* Same degradation contract as {!Sfs}: only a crash surfaces; a full
   or sick journal latches degraded and the store keeps working
   without durability. *)
let journal_append t ~site record : (unit, [ `Crashed ]) result =
  match t.journal with
  | None -> Ok ()
  | Some j ->
      if t.jdegraded then Ok ()
      else begin
        match Journal.append j ~site record with
        | Ok () -> Ok ()
        | Error `Crashed -> Error `Crashed
        | Error `Full | Error `Io ->
            t.jdegraded <- true;
            if !Obs.enabled then Obs.Metrics.inc m_journal_degraded;
            Ok ()
      end

let create_file t ~name ~bytes =
  if Hashtbl.mem t.files name then
    Error (Printf.sprintf "file %S already exists" name)
  else begin
    let pages = (bytes + page_bytes - 1) / page_bytes in
    let len = max 1 pages * t.page_blocks in
    match Extents.alloc t.extents ~len with
    | None -> Error (Printf.sprintf "no extent of %d blocks available" len)
    | Some ext ->
      (* Write-ahead: the allocation intent is durable before the file
         becomes visible. *)
      (match
         journal_append t ~site:name
           (Journal.Ext_alloc
              { start = ext.Extents.start; len = ext.Extents.len; tag = name })
       with
      | Error `Crashed ->
        Extents.free t.extents ext;
        Error "crashed while journaling file allocation"
      | Ok () ->
        let f =
          { fname = name; ext; page_blocks = t.page_blocks; deleted = false }
        in
        Hashtbl.replace t.files name f;
        Ok f)
  end

let find t name = Hashtbl.find_opt t.files name

let delete t f =
  if not f.deleted then begin
    (match
       journal_append t ~site:f.fname
         (Journal.Ext_free
            { start = f.ext.Extents.start; len = f.ext.Extents.len;
              tag = f.fname })
     with
    | Ok () | Error `Crashed -> ());
    f.deleted <- true;
    Hashtbl.remove t.files f.fname;
    Extents.free t.extents f.ext
  end

type remount_stats = {
  rm_replayed : int;
  rm_torn : int;
  rm_files : int;
  rm_conflicts : int;
}

let remount t =
  match t.journal with
  | None -> Error "File_store.remount: no journal mounted"
  | Some j ->
    let records, rp = Journal.replay j in
    let image : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun r ->
        match r with
        | Journal.Ext_alloc { start; len; tag } ->
          Hashtbl.replace image tag (start, len)
        | Journal.Ext_free { tag; _ } -> Hashtbl.remove image tag
        | Journal.Swap_open _ | Journal.Swap_close _ | Journal.Remap _
        | Journal.Commit _ ->
          (* SFS records never land in the file-store journal. *)
          ())
      records;
    let extents = Extents.create ~first:t.region_first ~len:t.region_len in
    ignore
      (Extents.alloc_at extents ~start:(Journal.first_block j)
         ~len:(Journal.nblocks j));
    let conflicts = ref 0 in
    Hashtbl.reset t.files;
    let rebuilt = ref 0 in
    Hashtbl.fold (fun name sl acc -> (name, sl) :: acc) image []
    |> List.sort compare
    |> List.iter (fun (name, (start, len)) ->
           match Extents.alloc_at extents ~start ~len with
           | None -> incr conflicts
           | Some ext ->
             incr rebuilt;
             Hashtbl.replace t.files name
               { fname = name; ext; page_blocks = t.page_blocks;
                 deleted = false });
    t.extents <- extents;
    t.jdegraded <- false;
    Ok
      { rm_replayed = rp.Journal.rp_replayed;
        rm_torn = rp.Journal.rp_torn;
        rm_files = !rebuilt;
        rm_conflicts = !conflicts }

let snapshot t =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "free=%d\n" (free_blocks t));
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) t.files []
  |> List.sort compare
  |> List.iter (fun (name, f) ->
         Buffer.add_string b
           (Printf.sprintf "file %s start=%d len=%d\n" name
              f.ext.Extents.start f.ext.Extents.len));
  Buffer.contents b

let file_name f = f.fname
let file_pages f = f.ext.Extents.len / f.page_blocks
let extent_start f = f.ext.Extents.start

let lba_of_page f page_index =
  if f.deleted then invalid_arg "File_store: file deleted";
  if page_index < 0 || page_index >= file_pages f then
    invalid_arg "File_store: page index out of file";
  f.ext.Extents.start + (page_index * f.page_blocks)

let read_page_async t f ~client ~page_index =
  Usd.submit t.u client Usd.Read ~lba:(lba_of_page f page_index)
    ~nblocks:f.page_blocks

(* File-store clients (the Fig. 7/8 streamers) have no recovery story
   of their own: retry transient errors a few times, give up loudly on
   anything worse. *)
let rw t f ~client op ~page_index =
  let rec go ~attempt =
    match
      Usd.transact t.u client op ~lba:(lba_of_page f page_index)
        ~nblocks:f.page_blocks
    with
    | Ok () -> Ok ()
    | Error (`Media m) when (not m.Usd.persistent) && attempt < 3 ->
      Inject.note_retried recovery;
      go ~attempt:(attempt + 1)
    | Error (`Media m) ->
      Inject.note_killed recovery;
      Error (`Media m)
    | Error `Cancelled | Error `Retired -> Error `Retired
  in
  go ~attempt:0

let read_page t f ~client ~page_index = rw t f ~client Usd.Read ~page_index
let write_page t f ~client ~page_index = rw t f ~client Usd.Write ~page_index
