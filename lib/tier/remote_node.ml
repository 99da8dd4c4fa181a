open Engine

type t = {
  capacity_pages : int;
  owners : (string, int) Hashtbl.t; (* owner -> its id at this node *)
  table : (int, unit) Hashtbl.t; (* entries, by {!key} *)
}

let create ~capacity_pages () =
  if capacity_pages < 0 then
    invalid_arg "Remote_node.create: negative capacity";
  { capacity_pages; owners = Hashtbl.create 8; table = Hashtbl.create 64 }

let used_pages t = Hashtbl.length t.table
let capacity t = t.capacity_pages
let has_room t = used_pages t < t.capacity_pages
let service_time = Time.us 25

(* One int per entry: the owner's id above a 32-bit slot above an
   8-bit shard ({!Ec} keeps k + m <= 255). *)
let key id ~slot ~shard =
  if slot < 0 || slot lsr 32 <> 0 || shard < 0 || shard > 0xff then
    invalid_arg "Remote_node: slot or shard out of range";
  (((id lsl 32) lor slot) lsl 8) lor shard

(* The owner's id at this node, given on first sight. *)
let owner_id t owner =
  match Hashtbl.find t.owners owner with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.owners in
      Hashtbl.replace t.owners owner id;
      id

let holds t ~shard ~owner ~slot =
  Hashtbl.mem t.table (key (owner_id t owner) ~slot ~shard)

let store t ~shard ~owner ~slot =
  let k = key (owner_id t owner) ~slot ~shard in
  if Hashtbl.mem t.table k then Ok ()
  else if has_room t then begin
    Hashtbl.replace t.table k ();
    Ok ()
  end
  else Error `Remote_full

let drop t ~shard ~owner ~slot =
  Hashtbl.remove t.table (key (owner_id t owner) ~slot ~shard)

let wipe t = Hashtbl.reset t.table
