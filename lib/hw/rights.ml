type t = { r : bool; w : bool; x : bool; m : bool }

let none = { r = false; w = false; x = false; m = false }
let read = { none with r = true }
let read_write = { none with r = true; w = true }
let all = { r = true; w = true; x = true; m = true }
let rw_meta = { r = true; w = true; x = false; m = true }

let subset a b =
  (not a.r || b.r) && (not a.w || b.w) && (not a.x || b.x) && (not a.m || b.m)

let permits t = function
  | `Read -> t.r
  | `Write -> t.w
  | `Execute -> t.x

let to_bits t =
  (if t.r then 1 else 0) lor (if t.w then 2 else 0) lor (if t.x then 4 else 0)
  lor (if t.m then 8 else 0)

let of_bits b =
  { r = b land 1 <> 0; w = b land 2 <> 0; x = b land 4 <> 0; m = b land 8 <> 0 }

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "%c%c%c%c"
    (if t.r then 'r' else '-')
    (if t.w then 'w' else '-')
    (if t.x then 'x' else '-')
    (if t.m then 'm' else '-')
