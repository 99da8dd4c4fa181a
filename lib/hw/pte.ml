type t = int

(* Bit layout:
     0      present (an entry exists — the page belongs to a stretch)
     1      valid   (a physical frame is installed)
     2..5   global rights (r/w/x/m)
     6      dirty
     7      referenced
     8      FOW
     9      FOR
     16..35 sid  (20 bits)
     36..60 pfn  (25 bits)  *)

let b_present = 1
let b_valid = 2
let b_dirty = 1 lsl 6
let b_ref = 1 lsl 7
let b_fow = 1 lsl 8
let b_for = 1 lsl 9

let sid_shift = 16
let pfn_shift = 36
let max_sid = (1 lsl 20) - 1
let max_pfn = (1 lsl 25) - 1

let absent = 0
let is_absent t = t land b_present = 0

let make ~sid ~global =
  assert (sid >= 0 && sid <= max_sid);
  b_present lor (Rights.to_bits global lsl 2) lor (sid lsl sid_shift)

let valid t = t land b_valid <> 0
let pfn t = (t lsr pfn_shift) land max_pfn
let sid t = (t lsr sid_shift) land max_sid
let global t = Rights.of_bits ((t lsr 2) land 0xf)

let dirty t = t land b_dirty <> 0
let referenced t = t land b_ref <> 0
let fow t = t land b_fow <> 0
let for_ t = t land b_for <> 0

let set_valid t ~pfn =
  assert (pfn >= 0 && pfn <= max_pfn);
  let t = t land lnot (max_pfn lsl pfn_shift) in
  t lor b_valid lor b_fow lor b_for lor (pfn lsl pfn_shift)

let set_invalid t =
  t land lnot (b_valid lor b_dirty lor b_ref lor b_fow lor b_for
               lor (max_pfn lsl pfn_shift))

let with_global t rights =
  t land lnot (0xf lsl 2) lor (Rights.to_bits rights lsl 2)

let set_dirty t = t lor b_dirty
let set_referenced t = t lor b_ref
let clear_fow t = t land lnot b_fow
let clear_for t = t land lnot b_for
