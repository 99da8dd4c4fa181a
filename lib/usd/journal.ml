open Engine
open Disk

type record =
  | Swap_open of {
      name : string;
      start : int;
      len : int;
      data_pages : int;
      spare_pages : int;
    }
  | Swap_close of { name : string }
  | Remap of { name : string; slot : int; spare : int }
  | Commit of {
      name : string;
      pairs : (int * int) list;
      retire : (int * int) list;
    }

type t = {
  u : Usd.t;
  client : Usd.client;
  dm : Disk_model.t;
  first : int;
  nblocks : int;
  block_size : int;
  mutable head : int;
  mutable seq : int;
  mutable full : bool;
  mutable appended : int;
  (* Appends block in [Usd.transact]; without mutual exclusion two
     concurrent appenders would read the same head, write the same
     bloks and leave holes when both advance it. *)
  lock : Sync.Semaphore.t;
}

let create ~u ~client ~first ~nblocks =
  if nblocks <= 0 then invalid_arg "Journal.create: empty region";
  let dm = Usd.disk u in
  { u; client; dm;
    first; nblocks;
    block_size = (Disk_model.params dm).Disk_params.block_size;
    head = 0; seq = 0; full = false; appended = 0;
    lock = Sync.Semaphore.create 1 }

let first_block t = t.first
let nblocks t = t.nblocks
let appended t = t.appended
let full t = t.full

(* -- serialization ---------------------------------------------------- *)

(* Names become the final, rest-of-tokens-free field of their record,
   so they must not contain the separator. *)
let check_name n =
  if n = "" || String.contains n ' ' || String.contains n '\n' then
    invalid_arg ("Journal: bad name " ^ String.escaped n)

let pairs_to_string ps =
  String.concat " "
    (string_of_int (List.length ps)
    :: List.map (fun (p, s) -> Printf.sprintf "%d:%d" p s) ps)

let body_of_record = function
  | Swap_open { name; start; len; data_pages; spare_pages } ->
      check_name name;
      Printf.sprintf "sopen %d %d %d %d %s" start len data_pages spare_pages
        name
  | Swap_close { name } ->
      check_name name;
      "sclose " ^ name
  | Remap { name; slot; spare } ->
      check_name name;
      Printf.sprintf "remap %d %d %s" slot spare name
  | Commit { name; pairs; retire } ->
      check_name name;
      Printf.sprintf "commit %s %s %s" (pairs_to_string pairs)
        (pairs_to_string retire) name

(* A malformed record body is data, not a programming error: parsing
   answers [None] and replay quarantines the record as invalid. *)
let pair_of_token tok =
  match String.index_opt tok ':' with
  | None -> None
  | Some i -> (
      match
        ( int_of_string_opt (String.sub tok 0 i),
          int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
        )
      with
      | Some p, Some s -> Some (p, s)
      | _ -> None)

(* Take [n] "p:s" tokens off the front. *)
let rec take_pairs n toks =
  if n = 0 then Some ([], toks)
  else
    match toks with
    | [] -> None
    | tok :: rest -> (
        match pair_of_token tok with
        | None -> None
        | Some p -> (
            match take_pairs (n - 1) rest with
            | None -> None
            | Some (ps, rest) -> Some (p :: ps, rest)))

let record_of_body body =
  try
    match String.split_on_char ' ' body with
    | [ "sopen"; start; len; dp; sp; name ] ->
        Some
          (Swap_open
             { name;
               start = int_of_string start;
               len = int_of_string len;
               data_pages = int_of_string dp;
               spare_pages = int_of_string sp })
    | [ "sclose"; name ] -> Some (Swap_close { name })
    | [ "remap"; slot; spare; name ] ->
        Some
          (Remap
             { name; slot = int_of_string slot; spare = int_of_string spare })
    | "commit" :: np :: rest -> (
        match take_pairs (int_of_string np) rest with
        | None -> None
        | Some (pairs, rest) -> (
            match rest with
            | nr :: rest -> (
                match take_pairs (int_of_string nr) rest with
                | None -> None
                | Some (retire, rest) -> (
                    match rest with
                    | [ name ] -> Some (Commit { name; pairs; retire })
                    | _ -> None))
            | [] -> None))
    | _ -> None
  with _ -> None

(* FNV-1a 64-bit over sequence number and body: cheap, deterministic,
   and plenty to detect a record assembled from bloks of two different
   appends after a torn write. *)
let checksum ~seq body =
  let h = ref 0xcbf29ce484222325L in
  let feed c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x1b3L
  in
  String.iter feed (string_of_int seq);
  feed ' ';
  String.iter feed body;
  Printf.sprintf "%Lx" !h

let magic = "NJ1"

let encode ~seq body =
  Printf.sprintf "%s %d %d %s %s" magic seq (String.length body)
    (checksum ~seq body) body

(* Header fields of an encoded record: magic, seq, body length,
   checksum, then the body. Returns (seq, body_len, crc, body_offset)
   if the prefix parses. *)
let parse_header s =
  try
    let sp1 = String.index s ' ' in
    let sp2 = String.index_from s (sp1 + 1) ' ' in
    let sp3 = String.index_from s (sp2 + 1) ' ' in
    let sp4 = String.index_from s (sp3 + 1) ' ' in
    if String.sub s 0 sp1 <> magic then None
    else
      Some
        ( int_of_string (String.sub s (sp1 + 1) (sp2 - sp1 - 1)),
          int_of_string (String.sub s (sp2 + 1) (sp3 - sp2 - 1)),
          String.sub s (sp3 + 1) (sp4 - sp3 - 1),
          sp4 + 1 )
  with _ -> None

let bloks_of_string t s =
  let bs = t.block_size in
  let n = (String.length s + bs - 1) / bs in
  List.init n (fun i ->
      String.sub s (i * bs) (min bs (String.length s - (i * bs))))

(* -- append ----------------------------------------------------------- *)

type append_error = [ `Crashed | `Full | `Io ]

let metric c = if !Obs.enabled then Obs.Metrics.inc c
let m_full = Obs.Metrics.counter "journal.full"
let m_torn_appends = Obs.Metrics.counter "journal.torn_appends"
let m_appends = Obs.Metrics.counter "journal.appends"
let m_io_errors = Obs.Metrics.counter "journal.io_errors"
let m_torn_found = Obs.Metrics.counter "journal.torn_found"
let recovery = Inject.recovery "journal"

let store_bloks t ~at bloks =
  List.iteri (fun i b -> Disk_model.store t.dm ~lba:(at + i) b) bloks

let max_retries = 3

let append_locked t ~site record : (unit, append_error) result =
  if t.full then Error `Full
  else begin
    let encoded = encode ~seq:t.seq (body_of_record record) in
    let bloks = bloks_of_string t encoded in
    let nb = List.length bloks in
    if t.head + nb > t.nblocks then begin
      t.full <- true;
      metric m_full;
      Error `Full
    end
    else begin
      let lba = t.first + t.head in
      let now = Sim.now (Proc.current_sim ()) in
      match Inject.crash_write ~now ~site ~lba ~nblocks:nb with
      | Some k ->
          (* Torn append: the first [k] bloks reach the platter, the
             rest never do. The head does not advance — a later append
             (or the remount quarantine) overwrites the tear. *)
          store_bloks t ~at:lba (List.filteri (fun i _ -> i < k) bloks);
          metric m_torn_appends;
          Error `Crashed
      | None ->
          let rec go attempt =
            match Usd.transact t.u t.client Usd.Write ~lba ~nblocks:nb with
            | Ok () ->
                store_bloks t ~at:lba bloks;
                t.head <- t.head + nb;
                t.seq <- t.seq + 1;
                t.appended <- t.appended + 1;
                metric m_appends;
                Ok ()
            | Error (`Media m) ->
                if m.Usd.persistent || attempt >= max_retries then begin
                  Inject.note_killed recovery;
                  metric m_io_errors;
                  Error `Io
                end
                else begin
                  Inject.note_retried recovery;
                  Proc.sleep (Time.ms (1 lsl attempt));
                  go (attempt + 1)
                end
            | Error `Cancelled | Error `Retired ->
                metric m_io_errors;
                Error `Io
          in
          go 0
    end
  end

let append t ~site record : (unit, append_error) result =
  Sync.Semaphore.acquire t.lock;
  Fun.protect
    ~finally:(fun () -> Sync.Semaphore.release t.lock)
    (fun () -> append_locked t ~site record)

(* -- replay ----------------------------------------------------------- *)

type replay_stats = {
  rp_replayed : int;
  rp_torn : int;
  rp_scanned : int;
}

let replay_locked t =
  let records = ref [] in
  let torn = ref 0 in
  let pos = ref 0 in
  let seq = ref 0 in
  let stop = ref false in
  while not !stop do
    if !pos >= t.nblocks then stop := true
    else
      match Disk_model.load t.dm ~lba:(t.first + !pos) with
      | None -> stop := true (* blank blok: clean end of journal *)
      | Some blok0 -> (
          match parse_header blok0 with
          | None ->
              (* Content that is not a record header: a torn append
                 whose header blok belongs to an older overwritten
                 record, or garbage. Quarantine from here. *)
              incr torn;
              stop := true
          | Some (rseq, blen, crc, body_off) ->
              let total = body_off + blen in
              let nb = (total + t.block_size - 1) / t.block_size in
              if rseq <> !seq || !pos + nb > t.nblocks then begin
                incr torn;
                stop := true
              end
              else begin
                (* Assemble the full record from its blok run. *)
                let buf = Buffer.create total in
                Buffer.add_string buf blok0;
                let complete = ref true in
                for i = 1 to nb - 1 do
                  match Disk_model.load t.dm ~lba:(t.first + !pos + i) with
                  | Some b -> Buffer.add_string buf b
                  | None -> complete := false
                done;
                let assembled = Buffer.contents buf in
                let valid =
                  !complete
                  && String.length assembled >= total
                  &&
                  let body = String.sub assembled body_off blen in
                  crc = checksum ~seq:rseq body
                  && record_of_body body <> None
                in
                if not valid then begin
                  incr torn;
                  stop := true
                end
                else begin
                  let body = String.sub assembled body_off blen in
                  (match record_of_body body with
                  | Some r -> records := r :: !records
                  | None -> assert false);
                  incr seq;
                  pos := !pos + nb
                end
              end)
  done;
  (* Quarantine: erase every blok from the stop point on, so the torn
     tail can never be misread by a later replay and fresh appends
     start from a clean region. *)
  for i = !pos to t.nblocks - 1 do
    Disk_model.erase t.dm ~lba:(t.first + i)
  done;
  t.head <- !pos;
  t.seq <- !seq;
  t.full <- false;
  (* One timed read over the scanned prefix: the remount pays for its
     journal scan like any other client. *)
  if !pos > 0 then
    ignore (Usd.transact t.u t.client Usd.Read ~lba:t.first ~nblocks:!pos);
  if !torn > 0 then metric m_torn_found;
  ( List.rev !records,
    { rp_replayed = List.length !records; rp_torn = !torn; rp_scanned = !pos }
  )

(* Holding the lock keeps live clients' appends from interleaving with
   the scan and the head/seq rebuild. *)
let replay t =
  Sync.Semaphore.acquire t.lock;
  Fun.protect
    ~finally:(fun () -> Sync.Semaphore.release t.lock)
    (fun () -> replay_locked t)
