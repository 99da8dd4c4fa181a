(* Tests for the simulated MMU substrate. *)

open Hw

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Addr --- *)

let addr_basics () =
  check "page size" 8192 Addr.page_size;
  check "vpn" 2 (Addr.vpn_of_vaddr (2 * 8192 + 17));
  check "offset" 17 (Addr.offset (2 * 8192 + 17));
  checkb "aligned" true (Addr.is_page_aligned (3 * 8192));
  checkb "unaligned" false (Addr.is_page_aligned (3 * 8192 + 1));
  check "round up exact" 2 (Addr.round_up_pages (2 * 8192));
  check "round up partial" 3 (Addr.round_up_pages (2 * 8192 + 1))

(* --- Rights --- *)

let rights_ops () =
  checkb "permits read" true (Rights.permits Rights.read `Read);
  checkb "no write" false (Rights.permits Rights.read `Write);
  checkb "subset" true (Rights.subset Rights.read Rights.read_write);
  checkb "not subset" false (Rights.subset Rights.all Rights.read_write);
  Alcotest.(check string) "pp" "rw-m"
    (Format.asprintf "%a" Rights.pp Rights.rw_meta)

let rights_bits_roundtrip =
  QCheck.Test.make ~name:"rights to_bits/of_bits roundtrip" ~count:16
    QCheck.(int_range 0 15)
    (fun bits -> Rights.to_bits (Rights.of_bits bits) = bits)

(* --- Pte --- *)

let pte_null_mapping () =
  let pte = Pte.make ~sid:7 ~global:Rights.read_write in
  checkb "present" false (Pte.is_absent pte);
  checkb "invalid" false (Pte.valid pte);
  check "sid" 7 (Pte.sid pte);
  checkb "rights" true (Rights.equal (Pte.global pte) Rights.read_write)

let pte_valid_arms_for_fow () =
  let pte = Pte.set_valid (Pte.make ~sid:1 ~global:Rights.all) ~pfn:123 in
  checkb "valid" true (Pte.valid pte);
  check "pfn" 123 (Pte.pfn pte);
  checkb "fow armed" true (Pte.fow pte);
  checkb "for armed" true (Pte.for_ pte);
  checkb "not dirty" false (Pte.dirty pte);
  let pte = Pte.clear_fow (Pte.set_dirty pte) in
  checkb "dirty" true (Pte.dirty pte);
  checkb "fow cleared" false (Pte.fow pte);
  let pte = Pte.set_invalid pte in
  checkb "invalidated" false (Pte.valid pte);
  checkb "dirty cleared on invalidate" false (Pte.dirty pte);
  check "sid survives" 1 (Pte.sid pte)

let pte_roundtrip =
  QCheck.Test.make ~name:"pte field roundtrip" ~count:300
    QCheck.(quad (int_range 0 Pte.max_sid) (int_range 0 15)
              (int_range 0 Pte.max_pfn) bool)
    (fun (sid, rbits, pfn, valid) ->
      let rights = Rights.of_bits rbits in
      let pte = Pte.make ~sid ~global:rights in
      let pte = if valid then Pte.set_valid pte ~pfn else pte in
      Pte.sid pte = sid
      && Rights.equal (Pte.global pte) rights
      && Pte.valid pte = valid
      && ((not valid) || Pte.pfn pte = pfn))

(* --- Ramtab --- *)

let ramtab_lifecycle () =
  let rt = Ramtab.create ~nframes:16 in
  Alcotest.(check (option int)) "free frame has no owner" None
    (Ramtab.owner rt ~pfn:3);
  Ramtab.set_owner rt ~pfn:3 ~owner:9 ~width:13;
  Alcotest.(check (option int)) "owner" (Some 9) (Ramtab.owner rt ~pfn:3);
  checkb "available for owner" true
    (Ramtab.is_available_for_mapping rt ~pfn:3 ~domain:9);
  checkb "not available for other" false
    (Ramtab.is_available_for_mapping rt ~pfn:3 ~domain:8);
  Ramtab.set_state rt ~pfn:3 Ramtab.Mapped;
  checkb "mapped frame not available" false
    (Ramtab.is_available_for_mapping rt ~pfn:3 ~domain:9);
  Alcotest.check_raises "cannot free mapped frame"
    (Invalid_argument "Ramtab.clear_owner: pfn 3 is in use") (fun () ->
      Ramtab.clear_owner rt ~pfn:3);
  Ramtab.set_state rt ~pfn:3 Ramtab.Unused;
  Ramtab.clear_owner rt ~pfn:3;
  Alcotest.(check (option int)) "freed" None (Ramtab.owner rt ~pfn:3)

(* --- Page tables --- *)

let linear_pt_basics () =
  let pt = Linear_pt.create ~va_bits:24 () in
  let pte = Pte.make ~sid:5 ~global:Rights.read in
  Linear_pt.set pt 100 pte;
  check "lookup" pte (Linear_pt.lookup pt 100);
  checkb "absent elsewhere" true (Pte.is_absent (Linear_pt.lookup pt 101));
  check "entries" 1 ((Linear_pt.impl pt).Page_table.entries ());
  Linear_pt.set pt 100 Pte.absent;
  check "deleted" 0 ((Linear_pt.impl pt).Page_table.entries ())

(* A fresh table maps no PTE page: every directory slot shares one
   all-absent page, where a flat array of the 32-bit space would be
   2^19 words. *)
let linear_pt_fresh_is_small () =
  let pt = Linear_pt.create () in
  let words = Obj.reachable_words (Obj.repr pt) in
  checkb (Printf.sprintf "%d words < 2000" words) true (words < 2_000);
  checkb "absent" true (Pte.is_absent (Linear_pt.lookup pt ((1 lsl 19) - 1)))

(* Deleting where nothing is mapped neither writes the shared page nor
   maps one of its own. *)
let linear_pt_absent_set_allocates_nothing () =
  let pt = Linear_pt.create () in
  let reach () = Obj.reachable_words (Obj.repr pt) in
  let before = reach () in
  let allocated f =
    let b = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. b
  in
  let idle = allocated (fun () -> ()) in
  let sets =
    allocated (fun () ->
        for vpn = 0 to (1 lsl 19) - 1 do
          Linear_pt.set pt vpn Pte.absent
        done)
  in
  Alcotest.(check (float 0.)) "bytes allocated" idle sets;
  check "reachable words" before (reach ());
  check "entries" 0 ((Linear_pt.impl pt).Page_table.entries ());
  Linear_pt.set pt 5000 (Pte.make ~sid:1 ~global:Rights.read);
  checkb "other pages still unmapped" true
    (Pte.is_absent (Linear_pt.lookup pt 4000)
     && Pte.is_absent (Linear_pt.lookup pt 6000))

let linear_pt_out_of_range () =
  let pt = Linear_pt.create ~va_bits:25 () in
  let bad vpn =
    Invalid_argument (Printf.sprintf "Linear_pt: vpn %d out of range" vpn)
  in
  Alcotest.check_raises "lookup past the end" (bad 4096) (fun () ->
      ignore (Linear_pt.lookup pt 4096));
  Alcotest.check_raises "lookup below 0" (bad (-1)) (fun () ->
      ignore (Linear_pt.lookup pt (-1)));
  Alcotest.check_raises "set past the end" (bad 4096) (fun () ->
      Linear_pt.set pt 4096 (Pte.make ~sid:1 ~global:Rights.read));
  Alcotest.check_raises "delete past the end" (bad 4096) (fun () ->
      Linear_pt.set pt 4096 Pte.absent)

(* Drive the guarded page table against the linear one with random
   operation sequences: they must agree everywhere. A quarter of the
   operations delete, and VPNs are drawn often from both sides of the
   linear table's 1,024-entry page boundaries and from the last VPN. *)
let guarded_matches_linear =
  let edges = [ 0; 1; 1022; 1023; 1024; 1025; 2047; 2048; 3071; 3072; 4094; 4095 ] in
  let gen =
    QCheck.(
      list
        (pair
           (oneof [ int_range 0 4095; oneofl edges ])
           (frequency [ (1, always 0); (3, int_range 1 64) ])))
  in
  QCheck.Test.make ~name:"guarded pt behaves like linear pt" ~count:100 gen
    (fun ops ->
      let lin = Linear_pt.create ~va_bits:25 () in
      let gua = Guarded_pt.create ~va_bits:25 () in
      List.iter
        (fun (vpn, v) ->
          (* v = 0 means delete, otherwise insert a synthetic pte. *)
          let pte =
            if v = 0 then Pte.absent
            else Pte.make ~sid:v ~global:Rights.read_write
          in
          Linear_pt.set lin vpn pte;
          Guarded_pt.set gua vpn pte)
        ops;
      List.for_all
        (fun vpn -> Linear_pt.lookup lin vpn = Guarded_pt.lookup gua vpn)
        (edges @ List.map fst ops)
      && (Linear_pt.impl lin).Page_table.entries ()
         = (Guarded_pt.impl gua).Page_table.entries ())

let guarded_collapses_on_delete () =
  let gua = Guarded_pt.create ~va_bits:32 () in
  for vpn = 0 to 63 do
    Guarded_pt.set gua vpn (Pte.make ~sid:1 ~global:Rights.read)
  done;
  let _, depth_full = Guarded_pt.depth_stats gua in
  (* Delete everything except one entry: the trie must collapse back to
     a single leaf, not keep a chain of husk nodes. *)
  for vpn = 1 to 63 do
    Guarded_pt.set gua vpn Pte.absent
  done;
  let entries, depth_one = Guarded_pt.depth_stats gua in
  check "one entry left" 1 entries;
  check "collapsed to a leaf" 1 depth_one;
  checkb "was deeper when full" true (depth_full > 1);
  check "single memory reference again" 1 (Guarded_pt.lookup_refs gua 0)

let guarded_deeper_lookups () =
  let gua = Guarded_pt.create ~va_bits:32 () in
  for vpn = 0 to 200 do
    Guarded_pt.set gua vpn (Pte.make ~sid:1 ~global:Rights.read)
  done;
  checkb "multiple refs per lookup" true (Guarded_pt.lookup_refs gua 100 > 1);
  let entries, depth = Guarded_pt.depth_stats gua in
  check "entries" 201 entries;
  checkb "depth grows" true (depth >= 2)

(* --- TLB --- *)

let tlb_hit_miss () =
  let tlb = Tlb.create ~entries:4 () in
  let pte = Pte.set_valid (Pte.make ~sid:1 ~global:Rights.all) ~pfn:9 in
  Alcotest.(check (option int)) "initial miss" None
    (Option.map Pte.pfn (Tlb.lookup tlb ~asn:1 ~vpn:10));
  Tlb.insert tlb ~asn:1 ~vpn:10 pte;
  Alcotest.(check (option int)) "hit" (Some 9)
    (Option.map Pte.pfn (Tlb.lookup tlb ~asn:1 ~vpn:10));
  Alcotest.(check (option int)) "other asn misses" None
    (Option.map Pte.pfn (Tlb.lookup tlb ~asn:2 ~vpn:10));
  Tlb.invalidate tlb ~vpn:10;
  Alcotest.(check (option int)) "invalidated" None
    (Option.map Pte.pfn (Tlb.lookup tlb ~asn:1 ~vpn:10));
  check "hits" 1 (Tlb.hits tlb);
  check "misses" 3 (Tlb.misses tlb)

let tlb_capacity_eviction () =
  let tlb = Tlb.create ~entries:2 () in
  let pte pfn = Pte.set_valid (Pte.make ~sid:1 ~global:Rights.all) ~pfn in
  Tlb.insert tlb ~asn:1 ~vpn:1 (pte 1);
  Tlb.insert tlb ~asn:1 ~vpn:2 (pte 2);
  Tlb.insert tlb ~asn:1 ~vpn:3 (pte 3);
  (* FIFO: vpn 1 evicted. *)
  checkb "evicted" true (Tlb.lookup tlb ~asn:1 ~vpn:1 = None);
  checkb "kept 2" true (Tlb.lookup tlb ~asn:1 ~vpn:2 <> None);
  checkb "kept 3" true (Tlb.lookup tlb ~asn:1 ~vpn:3 <> None)

(* --- Mmu --- *)

let make_mmu () =
  let pt = Linear_pt.create ~va_bits:24 () in
  Mmu.create ~pt:(Linear_pt.impl pt) ~cost:Cost.nemesis ()

let no_rights _sid = None

let mmu_fault_classification () =
  let mmu = make_mmu () in
  (* Unallocated: no entry at all. *)
  (match Mmu.access mmu ~rights:no_rights ~asn:1 (3 * 8192) `Read with
  | Mmu.Fault { kind = Mmu.Unallocated; _ } -> ()
  | _ -> Alcotest.fail "expected unallocated fault");
  (* NULL mapping with read rights: page fault. *)
  Mmu.set_pte mmu ~vpn:3 (Pte.make ~sid:1 ~global:Rights.read);
  (match Mmu.access mmu ~rights:no_rights ~asn:1 (3 * 8192) `Read with
  | Mmu.Fault { kind = Mmu.Page_fault; _ } -> ()
  | _ -> Alcotest.fail "expected page fault");
  (* Write to a read-only page: access violation. *)
  (match Mmu.access mmu ~rights:no_rights ~asn:1 (3 * 8192) `Write with
  | Mmu.Fault { kind = Mmu.Access_violation; _ } -> ()
  | _ -> Alcotest.fail "expected access violation")

let mmu_translation_and_dirty () =
  let mmu = make_mmu () in
  Mmu.set_pte mmu ~vpn:3
    (Pte.set_valid (Pte.make ~sid:1 ~global:Rights.read_write) ~pfn:77);
  (* First read: FOR emulation sets referenced. *)
  (match Mmu.access mmu ~rights:no_rights ~asn:1 ((3 * 8192) + 5) `Read with
  | Mmu.Ok { pa; _ } -> check "pa" ((77 * 8192) + 5) pa
  | _ -> Alcotest.fail "expected success");
  let pte = Mmu.lookup mmu ~vpn:3 in
  checkb "referenced" true (Pte.referenced pte);
  checkb "not dirty yet" false (Pte.dirty pte);
  (* First write: FOW emulation sets dirty. *)
  (match Mmu.access mmu ~rights:no_rights ~asn:1 (3 * 8192) `Write with
  | Mmu.Ok _ -> ()
  | _ -> Alcotest.fail "expected success");
  checkb "dirty" true (Pte.dirty (Mmu.lookup mmu ~vpn:3))

let mmu_pdom_override () =
  let mmu = make_mmu () in
  Mmu.set_pte mmu ~vpn:4
    (Pte.set_valid (Pte.make ~sid:9 ~global:Rights.none) ~pfn:5);
  (* Global rights deny everything, but the pdom grants read on sid 9. *)
  let rights sid = if sid = 9 then Some Rights.read else None in
  (match Mmu.access mmu ~rights ~asn:1 (4 * 8192) `Read with
  | Mmu.Ok _ -> ()
  | _ -> Alcotest.fail "pdom rights should permit");
  (match Mmu.access mmu ~rights ~asn:1 (4 * 8192) `Write with
  | Mmu.Fault { kind = Mmu.Access_violation; _ } -> ()
  | _ -> Alcotest.fail "pdom rights should deny write")

let mmu_tlb_costs () =
  let mmu = make_mmu () in
  Mmu.set_pte mmu ~vpn:6
    (Pte.set_valid (Pte.make ~sid:1 ~global:Rights.read) ~pfn:2);
  let cost_of access =
    match access with
    | Mmu.Ok { cost; _ } -> cost
    | Mmu.Fault { cost; _ } -> cost
  in
  let first = cost_of (Mmu.access mmu ~rights:no_rights ~asn:1 (6 * 8192) `Read) in
  let second = cost_of (Mmu.access mmu ~rights:no_rights ~asn:1 (6 * 8192) `Read) in
  checkb "first access pays the walk (and PALcode)" true (first > 0);
  check "tlb hit is free" 0 second

(* --- Cost --- *)

let cost_paths () =
  let c = Cost.nemesis in
  check "trap path" (c.Cost.context_save + c.Cost.event_send + c.Cost.activation)
    (Cost.trap_path c);
  checkb "user path dominates" true (Cost.user_fault_path c > Cost.trap_path c)

let suite =
  [ ( "hw.addr", [ Alcotest.test_case "basics" `Quick addr_basics ] );
    ( "hw.rights",
      [ Alcotest.test_case "operations" `Quick rights_ops;
        qtest rights_bits_roundtrip ] );
    ( "hw.pte",
      [ Alcotest.test_case "null mapping" `Quick pte_null_mapping;
        Alcotest.test_case "valid arms FOR/FOW" `Quick pte_valid_arms_for_fow;
        qtest pte_roundtrip ] );
    ( "hw.ramtab", [ Alcotest.test_case "lifecycle" `Quick ramtab_lifecycle ] );
    ( "hw.page_table",
      [ Alcotest.test_case "linear basics" `Quick linear_pt_basics;
        Alcotest.test_case "fresh linear table is small" `Quick
          linear_pt_fresh_is_small;
        Alcotest.test_case "deleting where unmapped allocates nothing" `Quick
          linear_pt_absent_set_allocates_nothing;
        Alcotest.test_case "out-of-range vpn" `Quick linear_pt_out_of_range;
        qtest guarded_matches_linear;
        Alcotest.test_case "guarded depth" `Quick guarded_deeper_lookups;
        Alcotest.test_case "guarded collapse on delete" `Quick
          guarded_collapses_on_delete ] );
    ( "hw.tlb",
      [ Alcotest.test_case "hit/miss/invalidate" `Quick tlb_hit_miss;
        Alcotest.test_case "fifo eviction" `Quick tlb_capacity_eviction ] );
    ( "hw.mmu",
      [ Alcotest.test_case "fault classification" `Quick mmu_fault_classification;
        Alcotest.test_case "translation + FOR/FOW dirty" `Quick
          mmu_translation_and_dirty;
        Alcotest.test_case "pdom rights override" `Quick mmu_pdom_override;
        Alcotest.test_case "tlb fill costs" `Quick mmu_tlb_costs ] );
    ( "hw.cost", [ Alcotest.test_case "composite paths" `Quick cost_paths ] ) ]
