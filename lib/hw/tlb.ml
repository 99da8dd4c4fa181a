type slot = { mutable asn : int; mutable vpn : int; mutable pte : Pte.t }

(* One address space's hit and miss counters. *)
type asn_counters = {
  hits_c : Obs.Metrics.counter;
  misses_c : Obs.Metrics.counter;
}

type t = {
  slots : slot array;
  mutable next : int; (* FIFO replacement pointer *)
  mutable hits : int;
  mutable misses : int;
  (* Observability: per-address-space hit/miss counters, labelled
     "asn<N>" because the TLB knows domains only by their
     address-space number. Each TLB makes each address space's
     handles once, so every run pays the same. *)
  asn_counters : (int, asn_counters) Hashtbl.t;
}

let empty_vpn = -1

let create ?(entries = 64) () =
  { slots = Array.init entries (fun _ -> { asn = 0; vpn = empty_vpn; pte = Pte.absent });
    next = 0; hits = 0; misses = 0; asn_counters = Hashtbl.create 16 }

let counters_of t asn =
  match Hashtbl.find t.asn_counters asn with
  | c -> c
  | exception Not_found ->
    let label = Printf.sprintf "asn%d" asn in
    let c =
      { hits_c = Obs.Metrics.counter ~label "tlb.hits";
        misses_c = Obs.Metrics.counter ~label "tlb.misses" }
    in
    Hashtbl.add t.asn_counters asn c;
    c

let count_lookup t ~asn ~hit =
  if !Obs.enabled then begin
    let c = counters_of t asn in
    Obs.Metrics.inc (if hit then c.hits_c else c.misses_c)
  end

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

let hits t = t.hits
let misses t = t.misses
