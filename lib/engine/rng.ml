type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = int64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  (* Mask to OCaml's positive int range (to_int keeps the low 63 bits,
     which can read as negative). *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 random bits, scaled to [0,1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L
