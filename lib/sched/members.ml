type 'a t = { mutable slots : 'a option array }

let create () = { slots = [||] }

let add t (e : Edf.client) v =
  let n = Array.length t.slots in
  if e.id >= n then begin
    let slots = Array.make (max 16 (2 * (e.id + 1))) None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  t.slots.(e.id) <- Some v

let find t (e : Edf.client) =
  if e.id >= Array.length t.slots then raise Not_found
  else match t.slots.(e.id) with Some v -> v | None -> raise Not_found

let remove t (e : Edf.client) =
  if e.id < Array.length t.slots then t.slots.(e.id) <- None
