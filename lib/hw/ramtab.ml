type state = Unused | Mapped | Nailed

type entry = {
  mutable owner : int;
  mutable width : int;
  mutable st : state;
  mutable refs : int;
}

type t = entry array

let no_owner = -1

let create ~nframes =
  Array.init nframes (fun _ ->
      { owner = no_owner; width = Addr.page_shift; st = Unused; refs = 0 })

let nframes t = Array.length t

let check t pfn =
  if pfn < 0 || pfn >= Array.length t then
    invalid_arg (Printf.sprintf "Ramtab: pfn %d out of range" pfn)

let set_owner t ~pfn ~owner ~width =
  check t pfn;
  let e = t.(pfn) in
  e.owner <- owner;
  e.width <- width;
  e.st <- Unused;
  e.refs <- 0

let clear_owner t ~pfn =
  check t pfn;
  let e = t.(pfn) in
  if e.st <> Unused then
    invalid_arg (Printf.sprintf "Ramtab.clear_owner: pfn %d is in use" pfn);
  if e.refs <> 0 then
    invalid_arg (Printf.sprintf "Ramtab.clear_owner: pfn %d is shared" pfn);
  e.owner <- no_owner;
  e.width <- Addr.page_shift

let owner t ~pfn =
  check t pfn;
  let o = t.(pfn).owner in
  if o = no_owner then None else Some o

let width t ~pfn =
  check t pfn;
  t.(pfn).width

let state t ~pfn =
  check t pfn;
  t.(pfn).st

let set_state t ~pfn st =
  check t pfn;
  t.(pfn).st <- st

let refs t ~pfn =
  check t pfn;
  t.(pfn).refs

let is_shared t ~pfn =
  check t pfn;
  t.(pfn).refs > 0

let add_ref t ~pfn =
  check t pfn;
  let e = t.(pfn) in
  if e.owner = no_owner then
    invalid_arg (Printf.sprintf "Ramtab.add_ref: pfn %d has no owner" pfn);
  e.refs <- e.refs + 1

let drop_ref t ~pfn =
  check t pfn;
  let e = t.(pfn) in
  if e.refs <= 0 then
    invalid_arg (Printf.sprintf "Ramtab.drop_ref: pfn %d is not shared" pfn);
  e.refs <- e.refs - 1;
  e.refs

let is_available_for_mapping t ~pfn ~domain =
  pfn >= 0 && pfn < Array.length t
  &&
  let e = t.(pfn) in
  e.owner = domain && e.st = Unused
