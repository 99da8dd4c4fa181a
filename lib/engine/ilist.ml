type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

type 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable count : int;
}

let create () = { first = None; last = None; count = 0 }
let make_node v = { v; prev = None; next = None; linked = false }
let active n = n.linked
let length t = t.count

let push_front t n =
  if n.linked then invalid_arg "Ilist.push_front: node already linked";
  n.prev <- None;
  n.next <- t.first;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n;
  n.linked <- true;
  t.count <- t.count + 1

let push_back t n =
  if n.linked then invalid_arg "Ilist.push_back: node already linked";
  n.next <- None;
  n.prev <- t.last;
  (match t.last with Some l -> l.next <- Some n | None -> t.first <- Some n);
  t.last <- Some n;
  n.linked <- true;
  t.count <- t.count + 1

let remove t n =
  if not n.linked then invalid_arg "Ilist.remove: node not linked";
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.linked <- false;
  t.count <- t.count - 1

let move_front t n =
  remove t n;
  push_front t n

let move_back t n =
  remove t n;
  push_back t n

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some n ->
      let next = n.next in
      go (f acc n.v) next
  in
  go acc t.first

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)
