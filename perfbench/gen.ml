(* Seeded page streams.

   The benchmark owns its input generator: every page a domain touches
   is drawn here from the --seed argument, so the inputs depend on the
   seed alone and never on the simulator's own random streams (which a
   later change to the program may reorder). Draws are allocation-free
   (a splitmix-style mixer over native ints), so generating inputs adds
   nothing to the measured allocation. *)

type pattern = Seq | Rand | Hot

type t = {
  pattern : pattern;
  npages : int;
  start : int;  (* seeded start page of the populate sweep and of scans *)
  mutable state : int;
  mutable cursor : int;
  mutable digest : int;  (* FNV-style hash of every page handed out *)
}

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let draw t bound =
  t.state <- t.state + 0x1E3779B97F4A7C15;
  (mix t.state land max_int) mod bound

let note t page = t.digest <- (t.digest lxor page) * 0x100000001B3

let create ~seed ~stream pattern ~npages =
  let t =
    { pattern; npages; start = 0; state = mix (mix seed + stream);
      cursor = 0; digest = 0 }
  in
  let start = draw t npages in
  { t with start; cursor = start }

(* The populate sweep: page [i] of one sequential pass from [start]. *)
let populate_page t i =
  let p = (t.start + i) mod t.npages in
  note t p;
  p

(* Hot: 90% of accesses in the first eighth of the stretch. *)
let next t =
  let p =
    match t.pattern with
    | Seq ->
      let p = t.cursor in
      t.cursor <- (if p + 1 = t.npages then 0 else p + 1);
      p
    | Rand -> draw t t.npages
    | Hot ->
      let hot = max 1 (t.npages / 8) in
      if draw t 10 < 9 then draw t hot else draw t t.npages
  in
  note t p;
  p

let digest t = t.digest
