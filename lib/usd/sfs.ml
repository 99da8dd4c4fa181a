open Engine
open Disk

type swapfile = {
  fs : t;
  sname : string;
  ext : Extents.extent;
  (* [None] = detached: the owning domain died and its USD client was
     retired, but the extent and recovered metadata stay registered so
     a restarted domain can reattach by name. *)
  mutable client : Usd.client option;
  page_blocks : int;
  data_pages : int;
  spare_pages : int;
  (* Bad-blok remapping: data page slot -> spare slot (both indices
     into the extent). Installed when a write hits a persistent media
     error; subsequent reads and writes of the page go to the spare. *)
  remap : (int, int) Hashtbl.t;
  (* Journaled assignment state: stretch page -> slot for the newest
     committed copy, and the set of slots a Commit record covers.
     Empty while no journal is mounted. *)
  assigns : (int, int) Hashtbl.t;
  committed : (int, unit) Hashtbl.t;
  mutable spares_used : int;
  mutable remapped : int;
  mutable retries : int;
  mutable lost : int;
  mutable closed : bool;
}

and t = {
  u : Usd.t;
  dm : Disk_model.t;
  region_first : int;
  region_len : int;
  block_size : int;
  mutable extents : Extents.t;
  journal : Journal.t option;
  (* Latched when an append fails for a reason other than a crash
     (region full, unrecoverable I/O): operation continues without
     durability rather than killing pagers. *)
  mutable jdegraded : bool;
  swaps : (string, swapfile) Hashtbl.t;
}

let page_bytes = 8192

(* Bounded retry-with-backoff for transient media errors. *)
let max_retries = 4
let backoff_base = Time.of_ms_float 1.0

let journal_qos = Qos.make ~period:(Time.ms 100) ~slice:(Time.ms 20) ()

let create ?(journal_blocks = 0) ?(first_block = 0) ?nblocks u =
  let dm = Usd.disk u in
  let total = (Disk_model.params dm).Disk_params.nblocks in
  let nblocks = match nblocks with Some n -> n | None -> total - first_block in
  if first_block < 0 || nblocks <= 0 || first_block + nblocks > total then
    invalid_arg "Sfs.create: region out of bounds";
  if journal_blocks < 0 || journal_blocks >= nblocks then
    invalid_arg "Sfs.create: journal_blocks out of range";
  let extents = Extents.create ~first:first_block ~len:nblocks in
  let journal =
    if journal_blocks = 0 then None
    else begin
      (match Extents.alloc_at extents ~start:first_block ~len:journal_blocks with
      | Some _ -> ()
      | None -> assert false (* fresh region *));
      match Usd.admit u ~name:"sfs.journal" ~qos:journal_qos () with
      | Error e -> invalid_arg ("Sfs.create: journal client: " ^ e)
      | Ok client ->
          Some (Journal.create ~u ~client ~first:first_block
                  ~nblocks:journal_blocks)
    end
  in
  { u; dm;
    region_first = first_block; region_len = nblocks;
    block_size = (Disk_model.params dm).Disk_params.block_size;
    extents; journal; jdegraded = false; swaps = Hashtbl.create 7 }

let free_blocks t = Extents.free_blocks t.extents

let m_journal_degraded = Obs.Metrics.counter "sfs.journal_degraded"
let m_remounts = Obs.Metrics.counter "sfs.remounts"

(* Append an intent record, degrading (never failing the operation) on
   a full or sick journal. Only a torn append — a crash point firing —
   surfaces, because the writer is then considered dead. *)
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

type open_error = [ `Exists | `Sfs of string ]

let open_error_message = function
  | `Exists -> "swap name already open"
  | `Sfs e -> e

let open_swap t ~name ~bytes ~qos ?(spare_pages = 0) () =
  if spare_pages < 0 then invalid_arg "Sfs.open_swap: spare_pages < 0";
  match Hashtbl.find_opt t.swaps name with
  | Some sf when not sf.closed -> Error `Exists
  | _ ->
    let page_blocks = page_bytes / t.block_size in
    let pages = (bytes + page_bytes - 1) / page_bytes in
    let len = (pages + spare_pages) * page_blocks in
    (match Extents.alloc t.extents ~len with
    | None ->
      Error (`Sfs (Printf.sprintf "no extent of %d blocks available" len))
    | Some ext ->
      (match Usd.admit t.u ~name ~qos () with
      | Error e ->
        Extents.free t.extents ext;
        Error (`Sfs e)
      | Ok client ->
        (* Write-ahead: the open intent is durable before the swap is
           visible; a crash right after leaves a replayable record
           matching the allocation. *)
        (match
           journal_append t ~site:name
             (Journal.Swap_open
                { name; start = ext.Extents.start; len = ext.Extents.len;
                  data_pages = pages; spare_pages })
         with
        | Error `Crashed ->
          Usd.retire t.u client;
          Extents.free t.extents ext;
          Error (`Sfs "crashed while journaling swap open")
        | Ok () ->
          let sf =
            { fs = t; sname = name; ext; client = Some client; page_blocks;
              data_pages = pages; spare_pages;
              remap = Hashtbl.create 7;
              assigns = Hashtbl.create 64; committed = Hashtbl.create 64;
              spares_used = 0; remapped = 0; retries = 0; lost = 0;
              closed = false }
          in
          Hashtbl.replace t.swaps name sf;
          Ok sf)))

let close_swap t sf =
  if not sf.closed then begin
    (* The close intent is journaled but a crash here is ignored: the
       closer is dying anyway and replay then conservatively keeps the
       swap open. *)
    (match journal_append t ~site:sf.sname
             (Journal.Swap_close { name = sf.sname })
     with
    | Ok () | Error `Crashed -> ());
    sf.closed <- true;
    (match sf.client with Some c -> Usd.retire t.u c | None -> ());
    sf.client <- None;
    Extents.free t.extents sf.ext;
    Hashtbl.remove t.swaps sf.sname
  end

let detach_swap t sf =
  if not sf.closed then begin
    (match sf.client with Some c -> Usd.retire t.u c | None -> ());
    sf.client <- None
  end

type reattach_error = [ `Unknown | `Attached | `Sfs of string ]

let committed_pairs sf =
  Hashtbl.fold
    (fun p s acc -> if Hashtbl.mem sf.committed s then (p, s) :: acc else acc)
    sf.assigns []
  |> List.sort compare

let reattach_swap t ~name ~qos =
  match Hashtbl.find_opt t.swaps name with
  | None -> Error `Unknown
  | Some sf when sf.closed -> Error `Unknown
  | Some sf when sf.client <> None -> Error `Attached
  | Some sf -> (
      match Usd.admit t.u ~name ~qos () with
      | Error e -> Error (`Sfs e)
      | Ok client ->
          sf.client <- Some client;
          Ok (sf, committed_pairs sf))

let find_swap t name =
  match Hashtbl.find_opt t.swaps name with
  | Some sf when not sf.closed -> Some sf
  | _ -> None

let extent_blocks sf = sf.ext.Extents.len
let extent_start sf = sf.ext.Extents.start
let page_capacity sf = sf.data_pages
let swap_name sf = sf.sname
let attached sf = sf.client <> None
let swap_journaled sf = sf.fs.journal <> None

let retry_count sf = sf.retries
let remap_count sf = sf.remapped
let lost_count sf = sf.lost

(* Slot -> LBA, through the remap table. Spare slots live at the tail
   of the extent, past the data pages. *)
let slot_of_page sf page_index =
  match Hashtbl.find_opt sf.remap page_index with
  | Some spare -> spare
  | None -> page_index

let lba_of_page sf page_index =
  if page_index < 0 || page_index >= page_capacity sf then
    invalid_arg "Sfs: page index out of extent";
  sf.ext.Extents.start + (slot_of_page sf page_index * sf.page_blocks)

let slot_committed sf slot = Hashtbl.mem sf.committed slot

(* -- durable stamps ---------------------------------------------------

   Each fully written page slot carries a "name:slot" stamp at its
   first LBA in the Disk_model contents store — the simulation's stand-
   in for the page's payload. A torn write stamps only the slots its
   persisted prefix covers and erases the one it cut through, so a
   remount can check exactly which committed slots still hold data. *)

let stamp_value sf slot = Printf.sprintf "%s:%d" sf.sname slot

let stamp_slot sf slot =
  Disk_model.store sf.fs.dm ~lba:(lba_of_page sf slot) (stamp_value sf slot)

let unstamp_slot sf slot = Disk_model.erase sf.fs.dm ~lba:(lba_of_page sf slot)

let slot_ok sf ~slot =
  Disk_model.load sf.fs.dm ~lba:(lba_of_page sf slot)
  = Some (stamp_value sf slot)

(* Apply the durable effect of a write of [npages] slots from
   [page_index] of which only the first [k] bloks persisted. *)
let apply_torn sf ~page_index ~npages ~k =
  let whole = k / sf.page_blocks in
  for i = 0 to npages - 1 do
    if i < whole then stamp_slot sf (page_index + i)
    else if i = whole && k mod sf.page_blocks > 0 then
      unstamp_slot sf (page_index + i)
  done

(* Consult the crash layer before a durable data write. Crash points
   only exist under a mounted journal (the crash-consistency model);
   without one the write path is bit-for-bit the seed behaviour. *)
let crash_check sf ~page_index ~npages =
  match sf.fs.journal with
  | None -> None
  | Some _ ->
      if not !Inject.enabled then None
      else
        let k =
          Inject.crash_write
            ~now:(Sim.now (Proc.current_sim ()))
            ~site:sf.sname ~lba:(lba_of_page sf page_index)
            ~nblocks:(npages * sf.page_blocks)
        in
        (match k with
        | Some k -> apply_torn sf ~page_index ~npages ~k
        | None -> ());
        k

let stamp_write sf ~page_index ~npages =
  if sf.fs.journal <> None then
    for i = page_index to page_index + npages - 1 do
      stamp_slot sf i
    done

type io_error = [ `Lost_pages of int list | `Retired | `Crashed ]

let read_class = Inject.recovery "sfs.read"
let write_class = Inject.recovery "sfs.write"
let op_class = function Usd.Read -> read_class | Usd.Write -> write_class

(* Journal a spare remap as an intent — durable before the remap table
   mutates — then install it. *)
let journal_remap sf page_index =
  if sf.spares_used >= sf.spare_pages then `None
  else begin
    let spare = sf.data_pages + sf.spares_used in
    match
      journal_append sf.fs ~site:sf.sname
        (Journal.Remap { name = sf.sname; slot = page_index; spare })
    with
    | Error `Crashed -> `Crashed
    | Ok () ->
        sf.spares_used <- sf.spares_used + 1;
        Hashtbl.replace sf.remap page_index spare;
        sf.remapped <- sf.remapped + 1;
        `Ok spare
  end

(* Single-page transaction with the full recovery ladder. Every media
   error coming back is answered by exactly one accounting note:
   transient with retries left -> retry (with exponential backoff);
   persistent write with a spare left -> remap and rewrite; anything
   else -> the page's contents are gone. *)
let rw_page sf op ~page_index =
  match sf.client with
  | None -> Error `Retired
  | Some client ->
    let rec go ~attempt =
      match
        (if op = Usd.Write then crash_check sf ~page_index ~npages:1
         else None)
      with
      | Some _ -> Error `Crashed
      | None ->
      match
        Usd.transact sf.fs.u client op ~lba:(lba_of_page sf page_index)
          ~nblocks:sf.page_blocks
      with
      | Ok () ->
        if op = Usd.Write then stamp_write sf ~page_index ~npages:1;
        Ok ()
      | Error `Retired | Error `Cancelled -> Error `Retired
      | Error (`Media m) ->
        if (not m.Usd.persistent) && attempt < max_retries then begin
          sf.retries <- sf.retries + 1;
          Inject.note_retried (op_class op);
          Proc.sleep (backoff_base * (1 lsl attempt));
          go ~attempt:(attempt + 1)
        end
        else if m.Usd.persistent && op = Usd.Write then begin
          match journal_remap sf page_index with
          | `Ok _ ->
            Inject.note_remapped (op_class op);
            (* Fresh attempt budget at the spare location. *)
            go ~attempt:0
          | `Crashed -> Error `Crashed
          | `None ->
            (* Spares dry. The caller still holds the data and may
               re-site the page elsewhere (Sd_paged re-bloks), so the
               final answer to this error — remap or kill — is the
               caller's to account. *)
            sf.lost <- sf.lost + 1;
            Error (`Lost_pages [ page_index ])
        end
        else begin
          sf.lost <- sf.lost + 1;
          (match op with
          | Usd.Read ->
            (* Persistent read error (the sector under the data is
               gone) or a marginal sector that outlasted the retry
               budget: no layer above can conjure the data back. *)
            Inject.note_killed (op_class op)
          | Usd.Write ->
            (* Transient-exhausted write: as above, the caller decides
               and accounts. *)
            ());
          Error (`Lost_pages [ page_index ])
        end
    in
    go ~attempt:0

(* Multi-page transaction: tried as one coalesced transfer; if any
   blok in the span errors, degrade to page-at-a-time so healthy pages
   still move and only genuinely bad ones are lost. *)
let rw_pages sf op ~page_index ~npages =
  if npages <= 0 then invalid_arg "Sfs: npages <= 0";
  if page_index + npages > page_capacity sf then
    invalid_arg "Sfs: beyond extent";
  match sf.client with
  | None -> Error `Retired
  | Some client ->
    let coalesced_ok =
      (* A remapped page breaks contiguity; go page-at-a-time. *)
      npages = 1
      || not
           (List.exists
              (fun i -> Hashtbl.mem sf.remap i)
              (List.init npages (fun i -> page_index + i)))
    in
    let split () =
      let lost = ref [] in
      let failed = ref None in
      for i = page_index to page_index + npages - 1 do
        if !failed = None then
          match rw_page sf op ~page_index:i with
          | Ok () -> ()
          | Error `Retired -> failed := Some `Retired
          | Error `Crashed -> failed := Some `Crashed
          | Error (`Lost_pages l) -> lost := !lost @ l
      done;
      match !failed with
      | Some e -> Error e
      | None ->
        (match !lost with [] -> Ok () | l -> Error (`Lost_pages l))
    in
    if npages = 1 then rw_page sf op ~page_index
    else if not coalesced_ok then split ()
    else
      match
        (if op = Usd.Write then crash_check sf ~page_index ~npages
         else None)
      with
      | Some _ -> Error `Crashed
      | None ->
      match
        Usd.transact sf.fs.u client op ~lba:(lba_of_page sf page_index)
          ~nblocks:(npages * sf.page_blocks)
      with
      | Ok () ->
        if op = Usd.Write then stamp_write sf ~page_index ~npages;
        Ok ()
      | Error `Retired | Error `Cancelled -> Error `Retired
      | Error (`Media _) ->
        (* One injected error answered by one degradation: the coalesced
           transaction is abandoned and re-issued page-at-a-time. *)
        Inject.note_degraded (op_class op);
        split ()

let read_page sf ~page_index = rw_page sf Usd.Read ~page_index
let write_page sf ~page_index = rw_page sf Usd.Write ~page_index
let read_pages sf ~page_index ~npages = rw_pages sf Usd.Read ~page_index ~npages
let write_pages sf ~page_index ~npages =
  rw_pages sf Usd.Write ~page_index ~npages

(* A committing write: the data transaction, then — under a journal —
   one Commit record that atomically makes the listed (stretch page,
   slot) assignments durable and retires the slots they supersede. The
   record is appended only after the data write succeeded, so a
   record's presence certifies its data; a torn data write leaves no
   record and claims nothing. *)
let write_pages_commit sf ~page_index ~npages ~pages ~retire =
  match rw_pages sf Usd.Write ~page_index ~npages with
  | Error _ as e -> e
  | Ok () ->
    if sf.fs.journal = None then Ok ()
    else begin
      match
        journal_append sf.fs ~site:sf.sname
          (Journal.Commit { name = sf.sname; pairs = pages; retire })
      with
      | Error `Crashed -> Error `Crashed
      | Ok () ->
        List.iter (fun (_, old) -> Hashtbl.remove sf.committed old) retire;
        List.iter
          (fun (p, s) ->
            Hashtbl.replace sf.assigns p s;
            Hashtbl.replace sf.committed s ())
          pages;
        Ok ()
    end

(* -- remount / recovery ----------------------------------------------- *)

type remount_stats = {
  rm_replayed : int;
  rm_torn : int;
  rm_scanned : int;
  rm_swaps : int;  (** detached swaps rebuilt from the journal *)
  rm_conflicts : int;  (** replayed swaps whose extent could not be placed *)
}

(* Journal-replay image of one open swap. *)
type rswap = {
  rs_start : int;
  rs_len : int;
  rs_data_pages : int;
  rs_spare_pages : int;
  rs_remap : (int, int) Hashtbl.t;
  rs_assigns : (int, int) Hashtbl.t;
  rs_committed : (int, unit) Hashtbl.t;
  mutable rs_spares_used : int;
  mutable rs_remapped : int;
}

let remount t =
  match t.journal with
  | None -> Error "Sfs.remount: no journal mounted"
  | Some j ->
    let records, rp = Journal.replay j in
    (* Replay the metadata state machine. *)
    let open_swaps : (string, rswap) Hashtbl.t = Hashtbl.create 7 in
    List.iter
      (fun r ->
        match r with
        | Journal.Swap_open { name; start; len; data_pages; spare_pages } ->
          Hashtbl.replace open_swaps name
            { rs_start = start; rs_len = len;
              rs_data_pages = data_pages; rs_spare_pages = spare_pages;
              rs_remap = Hashtbl.create 7;
              rs_assigns = Hashtbl.create 64;
              rs_committed = Hashtbl.create 64;
              rs_spares_used = 0; rs_remapped = 0 }
        | Journal.Swap_close { name } -> Hashtbl.remove open_swaps name
        | Journal.Remap { name; slot; spare } ->
          (match Hashtbl.find_opt open_swaps name with
          | None -> ()
          | Some rs ->
            Hashtbl.replace rs.rs_remap slot spare;
            rs.rs_spares_used <- rs.rs_spares_used + 1;
            rs.rs_remapped <- rs.rs_remapped + 1)
        | Journal.Commit { name; pairs; retire } ->
          (match Hashtbl.find_opt open_swaps name with
          | None -> ()
          | Some rs ->
            List.iter
              (fun (_, old) -> Hashtbl.remove rs.rs_committed old)
              retire;
            List.iter
              (fun (p, s) ->
                Hashtbl.replace rs.rs_assigns p s;
                Hashtbl.replace rs.rs_committed s ())
              pairs))
      records;
    (* Rebuild the free map from scratch: journal region first, then
       every surviving extent at its recorded place. *)
    let extents = Extents.create ~first:t.region_first ~len:t.region_len in
    ignore
      (Extents.alloc_at extents ~start:(Journal.first_block j)
         ~len:(Journal.nblocks j));
    let conflicts = ref 0 in
    let rebuilt = ref 0 in
    let place ~start ~len =
      match Extents.alloc_at extents ~start ~len with
      | Some _ -> true
      | None ->
        incr conflicts;
        false
    in
    (* Live attached swaps (their owners never crashed) keep their heap
       structures — only their extents are re-placed in the fresh map. *)
    let keep = Hashtbl.create 7 in
    Hashtbl.iter
      (fun name sf ->
        if sf.client <> None && not sf.closed then begin
          ignore
            (place ~start:sf.ext.Extents.start ~len:sf.ext.Extents.len);
          Hashtbl.replace keep name sf
        end)
      t.swaps;
    (* Detached or unknown swaps are adopted from the journal image. *)
    Hashtbl.iter
      (fun name rs ->
        if not (Hashtbl.mem keep name) then begin
          if place ~start:rs.rs_start ~len:rs.rs_len then begin
            incr rebuilt;
            let sf =
              { fs = t; sname = name;
                ext = { Extents.start = rs.rs_start; len = rs.rs_len };
                client = None;
                page_blocks = page_bytes / t.block_size;
                data_pages = rs.rs_data_pages;
                spare_pages = rs.rs_spare_pages;
                remap = rs.rs_remap;
                assigns = rs.rs_assigns; committed = rs.rs_committed;
                spares_used = rs.rs_spares_used;
                remapped = rs.rs_remapped;
                retries = 0; lost = 0; closed = false }
            in
            Hashtbl.replace keep name sf
          end
        end)
      open_swaps;
    Hashtbl.reset t.swaps;
    Hashtbl.iter (fun name sf -> Hashtbl.replace t.swaps name sf) keep;
    t.extents <- extents;
    t.jdegraded <- false;
    if !Obs.enabled then Obs.Metrics.inc m_remounts;
    Ok
      { rm_replayed = rp.Journal.rp_replayed;
        rm_torn = rp.Journal.rp_torn;
        rm_scanned = rp.Journal.rp_scanned;
        rm_swaps = !rebuilt;
        rm_conflicts = !conflicts }

(* Canonical dump of the recovered state — free map, per-swap remap /
   assignment / commit tables — used by the idempotence tests: two
   replays of the same journal must produce identical snapshots. *)
let snapshot t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "free=%d\n" (free_blocks t));
  let sorted_pairs h =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare
  in
  Hashtbl.fold (fun name sf acc -> (name, sf) :: acc) t.swaps []
  |> List.sort compare
  |> List.iter (fun (name, sf) ->
         Buffer.add_string b
           (Printf.sprintf "swap %s start=%d len=%d dp=%d sp=%d used=%d%s\n"
              name sf.ext.Extents.start sf.ext.Extents.len sf.data_pages
              sf.spare_pages sf.spares_used
              (if sf.client = None then " detached" else ""));
         List.iter
           (fun (s, sp) ->
             Buffer.add_string b (Printf.sprintf "  remap %d->%d\n" s sp))
           (sorted_pairs sf.remap);
         List.iter
           (fun (p, s) ->
             Buffer.add_string b
               (Printf.sprintf "  page %d slot %d%s\n" p s
                  (if Hashtbl.mem sf.committed s then " committed" else "")))
           (sorted_pairs sf.assigns));
  Buffer.contents b
