(* The splitmix64 state lives in an 8-byte buffer read and written
   unboxed, and [mix] is inlined, so a draw allocates nothing but a
   boxed [int64] or [float] result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t = of_state (next t)

let int t bound =
  assert (bound > 0);
  (* Mask to OCaml's positive int range (to_int keeps the low 63 bits,
     which can read as negative). *)
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 random bits, scaled to [0,1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L
