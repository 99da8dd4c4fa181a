let chunk_bits = 64

type chunk = {
  base : int;  (* first blok index covered *)
  nbits : int; (* bloks covered (<= 64) *)
  mutable bits : int64; (* 1 = allocated *)
  next : chunk option;
}

type t = {
  head : chunk option;
  mutable hint : chunk option;
      (* earliest structure known to have free bloks *)
  capacity : int;
  mutable used : int;
}

let rec build base remaining =
  if remaining <= 0 then None
  else begin
    let nbits = min chunk_bits remaining in
    Some { base; nbits; bits = 0L; next = build (base + nbits) (remaining - nbits) }
  end

let create ~nbloks =
  if nbloks <= 0 then invalid_arg "Bloks.create: nbloks must be positive";
  let head = build 0 nbloks in
  { head; hint = head; capacity = nbloks; used = 0 }

let capacity t = t.capacity
let in_use t = t.used

let chunk_full c =
  if c.nbits = chunk_bits then Int64.equal c.bits Int64.minus_one
  else Int64.equal c.bits (Int64.sub (Int64.shift_left 1L c.nbits) 1L)

let first_free_bit c =
  let rec scan i =
    if i >= c.nbits then None
    else if Int64.logand (Int64.shift_right_logical c.bits i) 1L = 0L then Some i
    else scan (i + 1)
  in
  scan 0

let alloc t =
  (* Start from the hint; fall back to a scan from the head if the hint
     chain is exhausted (the hint is conservative, never wrong). *)
  let rec scan c =
    match c with
    | None -> None
    | Some c ->
      (match first_free_bit c with
      | Some bit ->
        c.bits <- Int64.logor c.bits (Int64.shift_left 1L bit);
        t.used <- t.used + 1;
        (* Advance the hint past chunks that just became full. *)
        if chunk_full c then t.hint <- c.next else t.hint <- Some c;
        Some (c.base + bit)
      | None -> scan c.next)
  in
  match scan t.hint with Some b -> Some b | None -> scan t.head

let find_chunk t blok =
  let rec walk = function
    | None -> None
    | Some c ->
      if blok >= c.base && blok < c.base + c.nbits then Some c else walk c.next
  in
  walk t.head

let is_allocated t blok =
  match find_chunk t blok with
  | None -> false
  | Some c ->
    Int64.logand (Int64.shift_right_logical c.bits (blok - c.base)) 1L = 1L

let claim t blok =
  match find_chunk t blok with
  | None -> invalid_arg "Bloks.claim: blok out of range"
  | Some c ->
    let bit = blok - c.base in
    if Int64.logand (Int64.shift_right_logical c.bits bit) 1L = 1L then false
    else begin
      c.bits <- Int64.logor c.bits (Int64.shift_left 1L bit);
      t.used <- t.used + 1;
      (* Claiming only removes free space, so the hint stays
         conservative; a chunk that just filled is still a valid hint
         (alloc skips full chunks). *)
      true
    end

let free t blok =
  match find_chunk t blok with
  | None -> invalid_arg "Bloks.free: blok out of range"
  | Some c ->
    let bit = blok - c.base in
    if Int64.logand (Int64.shift_right_logical c.bits bit) 1L = 0L then
      invalid_arg "Bloks.free: blok not allocated";
    c.bits <- Int64.logand c.bits (Int64.lognot (Int64.shift_left 1L bit));
    t.used <- t.used - 1;
    (* Freed space earlier than the hint moves the hint back. *)
    (match t.hint with
    | Some h when h.base <= c.base -> ()
    | _ -> t.hint <- Some c)

let check_invariants t =
  let counted = ref 0 in
  let rec walk = function
    | None -> ()
    | Some c ->
      for i = 0 to c.nbits - 1 do
        if Int64.logand (Int64.shift_right_logical c.bits i) 1L = 1L then
          incr counted
      done;
      walk c.next
  in
  walk t.head;
  assert (!counted = t.used);
  (* No chunk before the hint has free bloks. *)
  let rec check_before = function
    | None -> ()
    | Some c ->
      (match t.hint with
      | Some h when c.base < h.base ->
        assert (chunk_full c);
        check_before c.next
      | _ -> ())
  in
  (match t.hint with Some _ -> check_before t.head | None -> ())
