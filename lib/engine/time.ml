type t = int
type span = int

let zero = 0

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let of_us_float x = int_of_float (Float.round (x *. 1e3))
let of_ms_float x = int_of_float (Float.round (x *. 1e6))

let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let add t d = t + d
let diff a b = a - b

let max = Stdlib.max

let pp ppf t =
  let a = abs t in
  if a >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if a >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if a >= 1_000 then Format.fprintf ppf "%.3fus" (to_us t)
  else Format.fprintf ppf "%dns" t

let pp_span = pp
