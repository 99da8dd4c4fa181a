(* Rows live in [int array] chunks: [time; header; field ...], where
   the header is [kind lsl width_bits lor width]. A row never spans two
   chunks, so a chunk may end with unused words; [ends] says where each
   chunk's rows stop. Chunks double from [first_chunk] words up to
   [max_chunk] and are never copied. *)

type 'a t = {
  decode : int -> int array -> int -> 'a;
  chunks : int array Dynarray.t;
  ends : int Dynarray.t;  (* rows end here in each full chunk *)
  mutable cur : int array;
  mutable pos : int;  (* next free word of [cur] *)
  mutable rows : int;
}

let width_bits = 3
let first_chunk = 64
let max_chunk = 4096

let create decode =
  { decode; chunks = Dynarray.create (); ends = Dynarray.create ();
    cur = [||]; pos = 0; rows = 0 }

(* Room for a row of [words] words, starting a new chunk if [cur] is
   full; returns the row's first word. *)
let reserve t words =
  let pos = t.pos in
  if pos + words <= Array.length t.cur then begin
    t.pos <- pos + words;
    pos
  end
  else begin
    let n = Array.length t.cur in
    if n > 0 then Dynarray.add_last t.ends pos;
    let size = if n = 0 then first_chunk else min max_chunk (2 * n) in
    t.cur <- Array.make size 0;
    Dynarray.add_last t.chunks t.cur;
    t.pos <- words;
    0
  end

let[@inline] head t time ~kind ~width =
  let i = reserve t (2 + width) in
  let c = t.cur in
  c.(i) <- time;
  c.(i + 1) <- (kind lsl width_bits) lor width;
  t.rows <- t.rows + 1;
  i + 2

let record0 t time ~kind = ignore (head t time ~kind ~width:0)

let record1 t time ~kind a =
  let i = head t time ~kind ~width:1 in
  t.cur.(i) <- a

let record2 t time ~kind a b =
  let i = head t time ~kind ~width:2 in
  let c = t.cur in
  c.(i) <- a;
  c.(i + 1) <- b

let record3 t time ~kind a b d =
  let i = head t time ~kind ~width:3 in
  let c = t.cur in
  c.(i) <- a;
  c.(i + 1) <- b;
  c.(i + 2) <- d

let record4 t time ~kind a b d e =
  let i = head t time ~kind ~width:4 in
  let c = t.cur in
  c.(i) <- a;
  c.(i + 1) <- b;
  c.(i + 2) <- d;
  c.(i + 3) <- e

let length t = t.rows

(* Every row in order, as its time, header and the chunk and position
   of its fields. *)
let iter_rows f t =
  let last = Dynarray.length t.chunks - 1 in
  for k = 0 to last do
    let c = Dynarray.get t.chunks k in
    let stop = if k = last then t.pos else Dynarray.get t.ends k in
    let i = ref 0 in
    while !i < stop do
      let h = c.(!i + 1) in
      f c.(!i) (h lsr width_bits) c (!i + 2);
      i := !i + 2 + (h land ((1 lsl width_bits) - 1))
    done
  done

let iter f t = iter_rows (fun time kind c i -> f time (t.decode kind c i)) t

let collect t keep =
  let acc = ref [] in
  iter_rows
    (fun time kind c i ->
      if keep time then acc := (time, t.decode kind c i) :: !acc)
    t;
  List.rev !acc

let to_list t = collect t (fun _ -> true)

let between t lo hi = collect t (fun time -> time >= lo && time < hi)
