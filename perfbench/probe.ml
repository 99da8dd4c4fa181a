(* Measurement buffers, preallocated outside the OCaml heap (Bigarray),
   so the benchmark's own recording stays out of the allocation and
   peak-heap figures it reports. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let ints n =
  let a = Array1.create int c_layout n in
  Array1.fill a 0;
  a

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Host monotonic time in nanoseconds, without allocating. *)
let now_ns () = Int64.to_int (clock_ns ())

(* ---- raw samples ---------------------------------------------------- *)

type samples = { data : ints; mutable n : int; mutable dropped : int }

let samples cap = { data = ints cap; n = 0; dropped = 0 }

let clear s =
  s.n <- 0;
  s.dropped <- 0

let add s v =
  if s.n < Array1.dim s.data then begin
    Array1.unsafe_set s.data s.n v;
    s.n <- s.n + 1
  end
  else s.dropped <- s.dropped + 1

let sorted s =
  let a = Array.init s.n (fun i -> Array1.unsafe_get s.data i) in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile: always one of the samples, never an
   interpolation or a bucket edge. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let mean a =
  if Array.length a = 0 then 0.0
  else float (Array.fold_left ( + ) 0 a) /. float (Array.length a)

(* ---- per-chunk minima ------------------------------------------------ *)

(* The least host time each chunk of a repeated, identical span took, by
   chunk index. Other tenants of a shared host slow a chunk now and then,
   never speed it up, so the sum of the minima estimates the span's
   undisturbed time far more steadily than any one span's time. *)
type minima = ints

let minima cap =
  let m = ints cap in
  Array1.fill m max_int;
  m

let minima_capacity m = Array1.dim m

(* Record chunk [i] of the current span (dropped past capacity: the
   caller checks the chunk count against [minima_capacity]). *)
let minima_add m i v =
  if i < Array1.dim m && v < Array1.unsafe_get m i then Array1.unsafe_set m i v

let minima_sum m ~chunks =
  let s = ref 0 in
  for i = 0 to min chunks (Array1.dim m) - 1 do s := !s + m.{i} done;
  !s

(* ---- exact histogram of small non-negative integers ----------------- *)

(* One counter per nanosecond up to [hist_cap]: percentiles read from it
   are exact sample values (a step slower than the cap reads as the
   cap). *)
let hist_cap = 1 lsl 20

type hist = { counts : ints; mutable total : int }

let hist () = { counts = ints hist_cap; total = 0 }

let hist_clear h =
  Array1.fill h.counts 0;
  h.total <- 0

let hist_add h v =
  let i = if v < 0 then 0 else if v >= hist_cap then hist_cap - 1 else v in
  Array1.unsafe_set h.counts i (Array1.unsafe_get h.counts i + 1);
  h.total <- h.total + 1

let hist_rank h q =
  if h.total = 0 then 0
  else begin
    let want = max 1 (int_of_float (Float.ceil (q *. float h.total))) in
    let i = ref 0 and acc = ref (Array1.get h.counts 0) in
    while !acc < want do
      incr i;
      acc := !acc + Array1.get h.counts !i
    done;
    !i
  end

(* ---- spans ---------------------------------------------------------- *)

(* Span kinds, in CSV order. An access span covers one page access
   (the [Domains.try_access] call and the compute that follows it) and
   is named [access.fault] when the access took a fault; its children
   are the [backing.read]/[backing.write] calls the domain's driver made
   while it was in flight and the [cpu] span of the compute. *)
let k_access = 0
let k_cpu = 1
let k_read = 2
let k_write = 3
let k_fault = 4
let kind_name = [| "access"; "cpu"; "backing.read"; "backing.write"; "access.fault" |]

type spans = {
  kind : ints;
  owner : ints;  (* app index *)
  parent : ints;  (* span id, or -1 *)
  start : ints;  (* simulated ns *)
  stop : ints;  (* simulated ns; -1 while open *)
  mutable len : int;
  mutable lost : int;
}

let spans cap =
  { kind = ints cap; owner = ints cap; parent = ints cap; start = ints cap;
    stop = ints cap; len = 0; lost = 0 }

let spans_clear s =
  s.len <- 0;
  s.lost <- 0

let open_span s ~kind ~owner ~parent ~start =
  let id = s.len in
  if id < Array1.dim s.kind then begin
    Array1.unsafe_set s.kind id kind;
    Array1.unsafe_set s.owner id owner;
    Array1.unsafe_set s.parent id parent;
    Array1.unsafe_set s.start id start;
    Array1.unsafe_set s.stop id (-1);
    s.len <- id + 1;
    id
  end
  else begin
    s.lost <- s.lost + 1;
    -1
  end

let close_span s id ~stop = if id >= 0 then Array1.unsafe_set s.stop id stop
let set_kind s id kind = if id >= 0 then Array1.unsafe_set s.kind id kind

let write_csv s ~owner_name path =
  let oc = open_out path in
  output_string oc "id,parent,name,label,start_ns,end_ns,duration_ns\n";
  for i = 0 to s.len - 1 do
    let st = s.start.{i} and en = s.stop.{i} in
    if en >= 0 then
      Printf.fprintf oc "%d,%d,%s,%s,%d,%d,%d\n" i s.parent.{i}
        kind_name.(s.kind.{i})
        (owner_name s.owner.{i})
        st en (en - st)
  done;
  close_out oc

(* Self times of the closed spans of [kind]: each one's duration minus
   the union of its closed children's intervals. A child is recorded
   after its parent, and the children of one parent in start order, so
   one forward pass merges them. *)
let self_times s ~kind =
  let n = s.len in
  let covered = Array.make n 0 and last_end = Array.make n min_int in
  for i = 0 to n - 1 do
    let p = s.parent.{i} and en = s.stop.{i} in
    if p >= 0 && en >= 0 then begin
      let st = max s.start.{i} last_end.(p) in
      if en > st then begin
        covered.(p) <- covered.(p) + (en - st);
        last_end.(p) <- en
      end
    end
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if s.kind.{i} = kind && s.stop.{i} >= 0 then
      out := (s.stop.{i} - s.start.{i} - covered.(i)) :: !out
  done;
  Array.of_list !out

