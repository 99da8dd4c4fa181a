open Engine

type t = {
  sid_ : int;
  sname : string;
  slabel : string;
  sparent : int option;
  st0 : Time.t;
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

let next_id = ref 0
let buffer : record Ring.t ref = ref (Ring.create ~capacity:65536 ())

let start ~now ?(label = "") ?parent name =
  let id = !next_id in
  incr next_id;
  { sid_ = id; sname = name; slabel = label;
    sparent = Option.map (fun p -> p.sid_) parent; st0 = now; closed = false }

let finish ~now t =
  if not t.closed then begin
    t.closed <- true;
    Ring.record !buffer now
      { id = t.sid_; name = t.sname; label = t.slabel; parent = t.sparent;
        t0 = t.st0; t1 = now }
  end

let id t = t.sid_

let finished () = List.map snd (Ring.to_list !buffer)

let count () = Ring.length !buffer
let dropped () = Ring.dropped !buffer

let to_csv () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "id,parent,name,label,start_ns,end_ns,duration_ns\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%d,%s,%s,%s,%d,%d,%d\n" r.id
           (match r.parent with Some p -> string_of_int p | None -> "")
           r.name r.label (Time.to_ns r.t0) (Time.to_ns r.t1)
           (Time.diff r.t1 r.t0)))
    (finished ());
  Buffer.contents b

let reset () =
  Ring.clear !buffer;
  next_id := 0
