(* [unmapped] is shared by every directory slot of every table, so it
   must never be written: [set] gives a slot its own page before
   storing a present entry there, and ignores an absent one. *)

let page_bits = 10
let page_entries = 1 lsl page_bits
let unmapped = Array.make page_entries Pte.absent

type t = { dir : int array array; nvpn : int; mutable entries : int }

let create ?(va_bits = 32) () =
  let nvpn = 1 lsl (va_bits - Addr.page_shift) in
  let pages = (nvpn + page_entries - 1) lsr page_bits in
  { dir = Array.make pages unmapped; nvpn; entries = 0 }

let check t vpn =
  if vpn < 0 || vpn >= t.nvpn then
    invalid_arg (Printf.sprintf "Linear_pt: vpn %d out of range" vpn)

let lookup t vpn =
  check t vpn;
  t.dir.(vpn lsr page_bits).(vpn land (page_entries - 1))

let set t vpn pte =
  check t vpn;
  let page = t.dir.(vpn lsr page_bits) in
  let has = not (Pte.is_absent pte) in
  if page != unmapped then begin
    let i = vpn land (page_entries - 1) in
    let had = not (Pte.is_absent page.(i)) in
    if had <> has then t.entries <- (t.entries + if has then 1 else -1);
    page.(i) <- pte
  end
  else if has then begin
    let page = Array.make page_entries Pte.absent in
    t.dir.(vpn lsr page_bits) <- page;
    page.(vpn land (page_entries - 1)) <- pte;
    t.entries <- t.entries + 1
  end

let impl t =
  { Page_table.kind = "linear";
    lookup = lookup t;
    set = set t;
    lookup_refs = (fun _vpn -> 1);
    entries = (fun () -> t.entries) }
