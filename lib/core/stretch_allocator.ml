open Hw

type region = { rstart : Addr.vaddr; rlen : int }

type t = {
  translation : Translation.t;
  mutable free : region list; (* sorted by start *)
  mutable next_sid : int;
  by_sid : (int, Stretch.t) Hashtbl.t;
}

let create translation ~va_base ~va_bytes =
  if not (Addr.is_page_aligned va_base && Addr.is_page_aligned va_bytes) then
    invalid_arg "Stretch_allocator.create: unaligned region";
  { translation;
    free = [ { rstart = va_base; rlen = va_bytes } ];
    next_sid = 1;
    by_sid = Hashtbl.create 64 }

let free_bytes t = List.fold_left (fun acc r -> acc + r.rlen) 0 t.free

(* Carve [len] bytes out of the free list: either first-fit anywhere,
   or at a caller-requested base address. *)
let carve t ?base len =
  match base with
  | None ->
    let rec take acc = function
      | [] -> None
      | r :: rest when r.rlen >= len ->
        let remainder =
          if r.rlen = len then rest
          else { rstart = r.rstart + len; rlen = r.rlen - len } :: rest
        in
        Some (r.rstart, List.rev_append acc remainder)
      | r :: rest -> take (r :: acc) rest
    in
    (match take [] t.free with
    | None -> None
    | Some (start, free') ->
      t.free <- free';
      Some start)
  | Some b ->
    let rec take acc = function
      | [] -> None
      | r :: rest when b >= r.rstart && b + len <= r.rstart + r.rlen ->
        let before =
          if b > r.rstart then [ { rstart = r.rstart; rlen = b - r.rstart } ]
          else []
        in
        let after =
          let tail_start = b + len in
          let tail_len = r.rstart + r.rlen - tail_start in
          if tail_len > 0 then [ { rstart = tail_start; rlen = tail_len } ]
          else []
        in
        Some (b, List.rev_append acc (before @ after @ rest))
      | r :: rest -> take (r :: acc) rest
    in
    (match take [] t.free with
    | None -> None
    | Some (start, free') ->
      t.free <- free';
      Some start)

let release t start len =
  let rec insert = function
    | [] -> [ { rstart = start; rlen = len } ]
    | r :: rest when start < r.rstart -> { rstart = start; rlen = len } :: r :: rest
    | r :: rest -> r :: insert rest
  in
  let rec coalesce = function
    | a :: b :: rest when a.rstart + a.rlen = b.rstart ->
      coalesce ({ rstart = a.rstart; rlen = a.rlen + b.rlen } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  t.free <- coalesce (insert t.free)

let alloc t ?base ?(global = Rights.none) ~owner_pdom ~owner ~bytes () =
  if bytes <= 0 then Error "stretch size must be positive"
  else begin
    (match base with
    | Some b when not (Addr.is_page_aligned b) ->
      Error "requested base not page aligned"
    | _ ->
      let npages = Addr.round_up_pages bytes in
      let len = npages * Addr.page_size in
      match carve t ?base len with
      | None -> Error "no virtual address range available"
      | Some start ->
        let sid = t.next_sid in
        t.next_sid <- t.next_sid + 1;
        let s =
          { Stretch.sid; base = start; bytes = len; owner; global }
        in
        Translation.add_null_range t.translation ~sid ~global ~base:start
          ~npages;
        (* The creator is the owner: grant read/write/meta. *)
        Pdom.set owner_pdom ~sid Rights.rw_meta;
        Hashtbl.replace t.by_sid sid s;
        Ok s)
  end

let destroy t (s : Stretch.t) =
  if Hashtbl.mem t.by_sid s.Stretch.sid then begin
    Hashtbl.remove t.by_sid s.Stretch.sid;
    Translation.remove_range t.translation ~base:s.Stretch.base
      ~npages:(Stretch.npages s);
    release t s.Stretch.base s.Stretch.bytes
  end
