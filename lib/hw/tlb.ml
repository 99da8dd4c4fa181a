type slot = { mutable asn : int; mutable vpn : int; mutable pte : Pte.t }

type t = {
  slots : slot array;
  mutable next : int; (* FIFO replacement pointer *)
  mutable hits : int;
  mutable misses : int;
  (* Observability: per-address-space hit/miss counters; label
     "asn<N>" because the TLB knows domains only by their address-space
     number. Each TLB builds each label once, so every run pays the
     same. *)
  asn_labels : (int, string) Hashtbl.t;
}

let empty_vpn = -1

let create ?(entries = 64) () =
  { slots = Array.init entries (fun _ -> { asn = 0; vpn = empty_vpn; pte = Pte.absent });
    next = 0; hits = 0; misses = 0; asn_labels = Hashtbl.create 16 }

let asn_label t asn =
  match Hashtbl.find t.asn_labels asn with
  | label -> label
  | exception Not_found ->
    let label = Printf.sprintf "asn%d" asn in
    Hashtbl.add t.asn_labels asn label;
    label

let count_lookup t ~asn ~hit =
  if !Obs.enabled then
    Obs.Metrics.inc ~label:(asn_label t asn)
      (if hit then "tlb.hits" else "tlb.misses")

let lookup t ~asn ~vpn =
  let n = Array.length t.slots in
  let rec scan i =
    if i >= n then begin
      t.misses <- t.misses + 1;
      count_lookup t ~asn ~hit:false;
      None
    end
    else begin
      let s = t.slots.(i) in
      if s.vpn = vpn && s.asn = asn then begin
        t.hits <- t.hits + 1;
        count_lookup t ~asn ~hit:true;
        Some s.pte
      end
      else scan (i + 1)
    end
  in
  scan 0

let insert t ~asn ~vpn pte =
  (* Overwrite an existing entry for the same page if present,
     otherwise take the FIFO victim. *)
  let n = Array.length t.slots in
  let rec find i = if i >= n then None else
      let s = t.slots.(i) in
      if s.vpn = vpn && s.asn = asn then Some s else find (i + 1)
  in
  let s =
    match find 0 with
    | Some s -> s
    | None ->
      let s = t.slots.(t.next) in
      t.next <- (t.next + 1) mod n;
      s
  in
  s.asn <- asn;
  s.vpn <- vpn;
  s.pte <- pte

let invalidate t ~vpn =
  Array.iter
    (fun s -> if s.vpn = vpn then begin s.vpn <- empty_vpn; s.pte <- Pte.absent end)
    t.slots

let invalidate_all t =
  Array.iter (fun s -> s.vpn <- empty_vpn; s.pte <- Pte.absent) t.slots

let hits t = t.hits
let misses t = t.misses
