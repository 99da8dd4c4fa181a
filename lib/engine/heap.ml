type 'a t = {
  mutable keys : int array;
  mutable subs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; subs = [||]; vals = [||]; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let less k s k' s' = k < k' || (k = k' && s < s')

let set h i k s v =
  h.keys.(i) <- k;
  h.subs.(i) <- s;
  h.vals.(i) <- v

let move h ~from ~to_ = set h to_ h.keys.(from) h.subs.(from) h.vals.(from)

(* Both sifts carry the element being placed in arguments and move
   the hole, writing the element once at its final slot. *)
let rec sift_up h i k s v =
  let p = (i - 1) / 2 in
  if i > 0 && less k s h.keys.(p) h.subs.(p) then begin
    move h ~from:p ~to_:i;
    sift_up h p k s v
  end
  else set h i k s v

let rec sift_down h i k s v =
  let l = (2 * i) + 1 in
  if l >= h.len then set h i k s v
  else
    let r = l + 1 in
    let c =
      if r < h.len && less h.keys.(r) h.subs.(r) h.keys.(l) h.subs.(l) then r
      else l
    in
    if less h.keys.(c) h.subs.(c) k s then begin
      move h ~from:c ~to_:i;
      sift_down h c k s v
    end
    else set h i k s v

let grow h v =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make ncap 0 and subs = Array.make ncap 0 in
  let vals = Array.make ncap v in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.subs 0 subs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.subs <- subs;
  h.vals <- vals

let push h ~key ~sub v =
  if h.len = Array.length h.keys then grow h v;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) key sub v

let top_key h =
  if h.len = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.vals.(0) in
  h.len <- h.len - 1;
  let n = h.len in
  if n > 0 then sift_down h 0 h.keys.(n) h.subs.(n) h.vals.(n);
  top
