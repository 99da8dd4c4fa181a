type 'a t = { mutable arr : 'a array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Dynarray: index out of bounds"

let get t i =
  check t i;
  t.arr.(i)

let set t i v =
  check t i;
  t.arr.(i) <- v

let add_last t v =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap v in
    Array.blit t.arr 0 narr 0 t.len;
    t.arr <- narr
  end;
  t.arr.(t.len) <- v;
  t.len <- t.len + 1

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.arr.(i)
  done;
  !acc

let to_array t = Array.sub t.arr 0 t.len
