open Engine
open Bigarray

type t = {
  id : int;
  name : string;
  label : string;
  parent : int; (* -1: a root span *)
  t0 : Time.t;
  mutable closed : bool;
}

type record = {
  id : int;
  name : string;
  label : string;
  parent : int option;
  t0 : Time.t;
  t1 : Time.t;
}

(* Never recorded: [finish] finds it closed. *)
let none = { id = -1; name = ""; label = ""; parent = -1; t0 = 0; closed = true }

(* --- the ring of finished spans ----------------------------------- *)

(* One column per field, filled in place: the int columns live outside
   the OCaml heap, the string columns point at the names and labels
   the instrumentation sites already hold. Drop-oldest once full. *)
let capacity = 65536

let int_column () =
  let a = Array1.create int c_layout capacity in
  Array1.fill a 0;
  a

let ids = int_column ()
let parents = int_column ()
let starts = int_column ()
let ends = int_column ()
let names = Array.make capacity ""
let labels = Array.make capacity ""
let next = ref 0 (* slot the next finished span goes into *)
let len = ref 0
let dropped_spans = ref 0
let next_id = ref 0

let start ~now ~label ~(parent : t) name =
  let id = !next_id in
  incr next_id;
  { id; name; label; parent = parent.id; t0 = now; closed = false }

let finish ~now (t : t) =
  if not t.closed then begin
    t.closed <- true;
    let i = !next in
    if !len = capacity then incr dropped_spans else incr len;
    Array1.unsafe_set ids i t.id;
    Array1.unsafe_set parents i t.parent;
    Array1.unsafe_set starts i t.t0;
    Array1.unsafe_set ends i now;
    Array.unsafe_set names i t.name;
    Array.unsafe_set labels i t.label;
    next := if i + 1 = capacity then 0 else i + 1
  end

let id (t : t) = t.id

(* The [k]-th retained span, oldest first, as a slot. *)
let slot k = (!next - !len + k + capacity) mod capacity

let finished () =
  List.init !len (fun k ->
      let i = slot k in
      let p = Array1.get parents i in
      { id = Array1.get ids i; name = names.(i); label = labels.(i);
        parent = (if p < 0 then None else Some p); t0 = Array1.get starts i;
        t1 = Array1.get ends i })

let count () = !len
let dropped () = !dropped_spans

let to_csv () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "id,parent,name,label,start_ns,end_ns,duration_ns\n";
  for k = 0 to !len - 1 do
    let i = slot k in
    let p = Array1.get parents i in
    let t0 = Array1.get starts i and t1 = Array1.get ends i in
    Printf.bprintf b "%d,%s,%s,%s,%d,%d,%d\n" (Array1.get ids i)
      (if p < 0 then "" else string_of_int p)
      names.(i) labels.(i) (Time.to_ns t0) (Time.to_ns t1) (Time.diff t1 t0)
  done;
  Buffer.contents b

(* Spans fill the slots from 0 up, so until the ring first drops one
   only [0, len) holds anything to let go of. *)
let reset () =
  let used = if !dropped_spans > 0 then capacity else !len in
  Array.fill names 0 used "";
  Array.fill labels 0 used "";
  next := 0;
  len := 0;
  dropped_spans := 0;
  next_id := 0
