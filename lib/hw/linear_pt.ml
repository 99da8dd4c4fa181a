type t = { table : int array; mutable entries : int }

let create ?(va_bits = 32) () =
  let nvpn = 1 lsl (va_bits - Addr.page_shift) in
  { table = Array.make nvpn Pte.absent; entries = 0 }

let check t vpn =
  if vpn < 0 || vpn >= Array.length t.table then
    invalid_arg (Printf.sprintf "Linear_pt: vpn %d out of range" vpn)

let lookup t vpn =
  check t vpn;
  t.table.(vpn)

let set t vpn pte =
  check t vpn;
  let had = not (Pte.is_absent t.table.(vpn)) in
  let has = not (Pte.is_absent pte) in
  (match (had, has) with
  | false, true -> t.entries <- t.entries + 1
  | true, false -> t.entries <- t.entries - 1
  | _ -> ());
  t.table.(vpn) <- pte

let impl t =
  { Page_table.kind = "linear";
    lookup = lookup t;
    set = set t;
    lookup_refs = (fun _vpn -> 1);
    entries = (fun () -> t.entries) }
