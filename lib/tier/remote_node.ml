open Engine

type t = {
  capacity_pages : int;
  table : (string * int * int, unit) Hashtbl.t;
}

let create ~capacity_pages () =
  if capacity_pages < 0 then
    invalid_arg "Remote_node.create: negative capacity";
  { capacity_pages; table = Hashtbl.create 64 }

let used_pages t = Hashtbl.length t.table
let capacity t = t.capacity_pages
let has_room t = used_pages t < t.capacity_pages
let service_time = Time.us 25

let holds t ~shard ~owner ~slot = Hashtbl.mem t.table (owner, slot, shard)

let store t ~shard ~owner ~slot =
  if holds t ~shard ~owner ~slot then Ok ()
  else if has_room t then begin
    Hashtbl.replace t.table (owner, slot, shard) ();
    Ok ()
  end
  else Error `Remote_full

let drop t ~shard ~owner ~slot = Hashtbl.remove t.table (owner, slot, shard)

let wipe t = Hashtbl.reset t.table
