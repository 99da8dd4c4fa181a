open Disk

type file = {
  fname : string;
  ext : Extents.extent;
  page_blocks : int;
  mutable deleted : bool;
}

type t = {
  u : Usd.t;
  extents : Extents.t;
  files : (string, file) Hashtbl.t;
  page_blocks : int;
}

let page_bytes = 8192

let create ?(first_block = 0) ?nblocks u =
  let params = Disk_model.params (Usd.disk u) in
  let total = params.Disk_params.nblocks in
  let nblocks = match nblocks with Some n -> n | None -> total - first_block in
  if first_block < 0 || nblocks <= 0 || first_block + nblocks > total then
    invalid_arg "File_store.create: region out of bounds";
  { u;
    extents = Extents.create ~first:first_block ~len:nblocks;
    files = Hashtbl.create 16;
    page_blocks = page_bytes / params.Disk_params.block_size }

let free_blocks t = Extents.free_blocks t.extents
let recovery = Inject.recovery "file_store"

let create_file t ~name ~bytes =
  if Hashtbl.mem t.files name then
    Error (Printf.sprintf "file %S already exists" name)
  else begin
    let pages = (bytes + page_bytes - 1) / page_bytes in
    let len = max 1 pages * t.page_blocks in
    match Extents.alloc t.extents ~len with
    | None -> Error (Printf.sprintf "no extent of %d blocks available" len)
    | Some ext ->
      let f =
        { fname = name; ext; page_blocks = t.page_blocks; deleted = false }
      in
      Hashtbl.replace t.files name f;
      Ok f
  end

let find t name = Hashtbl.find_opt t.files name

let delete t f =
  if not f.deleted then begin
    f.deleted <- true;
    Hashtbl.remove t.files f.fname;
    Extents.free t.extents f.ext
  end

let file_name f = f.fname
let file_pages f = f.ext.Extents.len / f.page_blocks
let extent_start f = f.ext.Extents.start

let lba_of_page f page_index =
  if f.deleted then invalid_arg "File_store: file deleted";
  if page_index < 0 || page_index >= file_pages f then
    invalid_arg "File_store: page index out of file";
  f.ext.Extents.start + (page_index * f.page_blocks)

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
