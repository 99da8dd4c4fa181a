open Engine

type fault_kind = Unallocated | Page_fault | Access_violation

type access = [ `Read | `Write | `Execute ]

type outcome =
  | Ok of { pa : Addr.paddr; cost : Time.span }
  | Fault of { kind : fault_kind; cost : Time.span }

type t = { pt : Page_table.impl; tlb : Tlb.t; cost : Cost.t }

let create ~pt ~cost () = { pt; tlb = Tlb.create (); cost }

let lookup t ~vpn = t.pt.Page_table.lookup vpn

let lookup_cost t ~vpn =
  t.pt.Page_table.lookup_refs vpn * t.cost.Cost.mem_ref

let set_pte t ~vpn pte =
  t.pt.Page_table.set vpn pte;
  Tlb.invalidate t.tlb ~vpn

let cost t = t.cost

let access t ~rights ~asn va kind =
  let vpn = Addr.vpn_of_vaddr va in
  let cost0 = ref 0 in
  let pte =
    match Tlb.lookup t.tlb ~asn ~vpn with
    | Some pte -> pte
    | None ->
      let pte = t.pt.Page_table.lookup vpn in
      cost0 := t.cost.Cost.tlb_fill + lookup_cost t ~vpn;
      if not (Pte.is_absent pte) && Pte.valid pte then
        Tlb.insert t.tlb ~asn ~vpn pte;
      pte
  in
  if Pte.is_absent pte then Fault { kind = Unallocated; cost = !cost0 }
  else begin
    let effective =
      match rights (Pte.sid pte) with
      | Some r -> r
      | None -> Pte.global pte
    in
    if not (Rights.permits effective kind) then
      Fault { kind = Access_violation; cost = !cost0 }
    else if not (Pte.valid pte) then
      Fault { kind = Page_fault; cost = !cost0 }
    else begin
      (* FOR/FOW emulation of referenced/dirty: PALcode DFault fires on
         the first read/write, updates the PTE and retries. *)
      let pte' =
        match kind with
        | `Read | `Execute when Pte.for_ pte ->
          Some (Pte.clear_for (Pte.set_referenced pte))
        | `Write when Pte.fow pte ->
          Some (Pte.clear_fow (Pte.set_dirty (Pte.set_referenced pte)))
        | `Read | `Write | `Execute -> None
      in
      (match pte' with
      | Some p ->
        cost0 := !cost0 + t.cost.Cost.palcode_dfault;
        t.pt.Page_table.set vpn p;
        Tlb.invalidate t.tlb ~vpn;
        Tlb.insert t.tlb ~asn ~vpn p
      | None -> ());
      let final = match pte' with Some p -> p | None -> pte in
      Ok { pa = Addr.paddr_of_pfn (Pte.pfn final) + Addr.offset va;
           cost = !cost0 }
    end
  end

let pp_fault_kind ppf = function
  | Unallocated -> Format.pp_print_string ppf "unallocated"
  | Page_fault -> Format.pp_print_string ppf "page-fault"
  | Access_violation -> Format.pp_print_string ppf "access-violation"
