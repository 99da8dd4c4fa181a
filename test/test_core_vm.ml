(* Tests for the Nemesis core: bloks, frame stacks, pdoms, stretches,
   the stretch allocator, the translation system, the frames allocator
   and event channels. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Bloks --- *)

let bloks_first_fit () =
  let b = Bloks.create ~nbloks:10 in
  check "capacity" 10 (Bloks.capacity b);
  Alcotest.(check (option int)) "first" (Some 0) (Bloks.alloc b);
  Alcotest.(check (option int)) "second" (Some 1) (Bloks.alloc b);
  Alcotest.(check (option int)) "third" (Some 2) (Bloks.alloc b);
  Bloks.free b 1;
  Alcotest.(check (option int)) "first fit reuses hole" (Some 1)
    (Bloks.alloc b);
  check "in use" 3 (Bloks.in_use b)

let bloks_exhaustion () =
  let b = Bloks.create ~nbloks:3 in
  ignore (Bloks.alloc b);
  ignore (Bloks.alloc b);
  ignore (Bloks.alloc b);
  Alcotest.(check (option int)) "full" None (Bloks.alloc b);
  Bloks.free b 2;
  Alcotest.(check (option int)) "after free" (Some 2) (Bloks.alloc b)

let bloks_errors () =
  let b = Bloks.create ~nbloks:70 in
  Alcotest.check_raises "double free"
    (Invalid_argument "Bloks.free: blok not allocated") (fun () ->
      Bloks.free b 5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bloks.free: blok out of range") (fun () ->
      Bloks.free b 99)

(* Random alloc/free interleavings across the chunk boundary keep the
   bitmap, the use count and the hint invariant consistent. *)
let bloks_invariants =
  QCheck.Test.make ~name:"bloks invariants under random ops" ~count:100
    QCheck.(list (pair bool (int_range 0 199)))
    (fun ops ->
      let b = Bloks.create ~nbloks:200 in
      let held = Hashtbl.create 16 in
      List.iter
        (fun (do_alloc, blok) ->
          if do_alloc then (
            match Bloks.alloc b with
            | Some got ->
              assert (not (Hashtbl.mem held got));
              Hashtbl.replace held got ()
            | None -> assert (Hashtbl.length held = 200))
          else if Hashtbl.mem held blok then begin
            Bloks.free b blok;
            Hashtbl.remove held blok
          end)
        ops;
      Bloks.check_invariants b;
      Bloks.in_use b = Hashtbl.length held
      && Hashtbl.fold (fun k () acc -> acc && Bloks.is_allocated b k) held true)

(* --- Frame_stack --- *)

let frame_stack_order () =
  let fs = Frame_stack.create () in
  Frame_stack.push fs 1;
  Frame_stack.push fs 2;
  Frame_stack.push fs 3;
  Alcotest.(check (list int)) "LIFO" [ 3; 2; 1 ] (Frame_stack.to_list fs);
  Alcotest.(check (list int)) "top 2" [ 3; 2 ] (Frame_stack.top_k fs 2);
  Frame_stack.move_to_bottom fs 3;
  Alcotest.(check (list int)) "demoted" [ 2; 1; 3 ] (Frame_stack.to_list fs);
  Frame_stack.move_to_top fs 1;
  Alcotest.(check (list int)) "promoted" [ 1; 2; 3 ] (Frame_stack.to_list fs);
  checkb "remove" true (Frame_stack.remove fs 2);
  checkb "remove absent" false (Frame_stack.remove fs 2);
  check "size" 2 (Frame_stack.size fs);
  Alcotest.check_raises "duplicate push"
    (Invalid_argument "Frame_stack.push: frame already present") (fun () ->
      Frame_stack.push fs 1)

(* --- Pdom --- *)

let pdom_rights () =
  let pd = Pdom.create ~asn:3 in
  check "asn" 3 (Pdom.asn pd);
  Alcotest.(check (option bool)) "no entry" None
    (Option.map (fun r -> r.Rights.r) (Pdom.lookup pd 7));
  checkb "fallback to global" true
    (Rights.equal (Pdom.effective pd 7 ~global:Rights.read) Rights.read);
  Pdom.set pd ~sid:7 Rights.rw_meta;
  checkb "explicit wins" true
    (Rights.equal (Pdom.effective pd 7 ~global:Rights.read) Rights.rw_meta);
  checkb "meta" true (Pdom.holds_meta pd ~sid:7 ~global:Rights.none);
  checkb "idempotent set detected" false
    (Pdom.set_changed pd ~sid:7 Rights.rw_meta);
  checkb "real change detected" true (Pdom.set_changed pd ~sid:7 Rights.read);
  Pdom.clear pd ~sid:7;
  check "cleared" 0 (Pdom.entries pd)

(* --- Fixture: a minimal translation environment --- *)

type fixture = {
  mmu : Mmu.t;
  ramtab : Ramtab.t;
  translation : Translation.t;
  salloc : Stretch_allocator.t;
  pd : Pdom.t;
}

let make_fixture () =
  let pt = Linear_pt.create ~va_bits:26 () in
  let mmu = Mmu.create ~pt:(Linear_pt.impl pt) ~cost:Cost.nemesis () in
  let ramtab = Ramtab.create ~nframes:256 in
  let translation = Translation.create mmu ramtab in
  let salloc =
    Stretch_allocator.create translation ~va_base:(1 lsl 20)
      ~va_bytes:(48 * 1024 * 1024)
  in
  let pd = Pdom.create ~asn:1 in
  { mmu; ramtab; translation; salloc; pd }

let alloc_stretch_exn f ?base ?global ~bytes () =
  match
    Stretch_allocator.alloc f.salloc ?base ?global ~owner_pdom:f.pd ~owner:1
      ~bytes ()
  with
  | Ok s -> s
  | Error e -> failwith e

(* --- Stretch / Stretch_allocator --- *)

let stretch_geometry () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:100_000 () in
  check "rounded to pages" 13 (Stretch.npages s);
  checkb "aligned" true (Addr.is_page_aligned s.Stretch.base);
  checkb "contains base" true (Stretch.contains s s.Stretch.base);
  checkb "excludes end" false (Stretch.contains s (s.Stretch.base + (13 * 8192)));
  check "page index" 2 (Stretch.page_index s (Stretch.page_base s 2 + 55))

let stretch_allocator_null_mappings () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:(2 * 8192) ~global:Rights.read () in
  let pte = Mmu.lookup f.mmu ~vpn:(Addr.vpn_of_vaddr s.Stretch.base) in
  checkb "entry exists" false (Pte.is_absent pte);
  checkb "invalid (NULL mapping)" false (Pte.valid pte);
  check "sid recorded" s.Stretch.sid (Pte.sid pte);
  checkb "owner got meta" true
    (Pdom.holds_meta f.pd ~sid:s.Stretch.sid ~global:Rights.none);
  Stretch_allocator.destroy f.salloc s;
  checkb "entries removed" true
    (Pte.is_absent (Mmu.lookup f.mmu ~vpn:(Addr.vpn_of_vaddr s.Stretch.base)))

let stretch_allocator_requested_base () =
  let f = make_fixture () in
  let base = (1 lsl 20) + (16 * 8192) in
  let s = alloc_stretch_exn f ~base ~bytes:8192 () in
  check "requested base honoured" base s.Stretch.base;
  (match
     Stretch_allocator.alloc f.salloc ~base ~owner_pdom:f.pd ~owner:1
       ~bytes:8192 ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping base accepted")

let stretch_allocator_no_overlap =
  QCheck.Test.make ~name:"allocated stretches never overlap" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 100))
    (fun sizes ->
      let f = make_fixture () in
      let stretches =
        List.filter_map
          (fun pages ->
            match
              Stretch_allocator.alloc f.salloc ~owner_pdom:f.pd ~owner:1
                ~bytes:(pages * 8192) ()
            with
            | Ok s -> Some s
            | Error _ -> None)
          sizes
      in
      List.for_all
        (fun (s1 : Stretch.t) ->
          List.length
            (List.filter
               (fun (s2 : Stretch.t) ->
                 s1.Stretch.base < s2.Stretch.base + s2.Stretch.bytes
                 && s2.Stretch.base < s1.Stretch.base + s1.Stretch.bytes)
               stretches)
          = 1)
        stretches)

let stretch_allocator_reuse_after_destroy () =
  let f = make_fixture () in
  let free0 = Stretch_allocator.free_bytes f.salloc in
  let s = alloc_stretch_exn f ~bytes:(64 * 8192) () in
  check "space taken" (free0 - (64 * 8192))
    (Stretch_allocator.free_bytes f.salloc);
  Stretch_allocator.destroy f.salloc s;
  check "space coalesced back" free0 (Stretch_allocator.free_bytes f.salloc)

let stretch_rights_meta_enforced () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:8192 () in
  let intruder = Pdom.create ~asn:2 in
  (match Stretch.set_rights_pdom s ~caller:intruder ~target:intruder Rights.all with
  | Error Translation.No_meta -> ()
  | _ -> Alcotest.fail "non-meta caller changed protections");
  (match Stretch.set_rights_pdom s ~caller:f.pd ~target:intruder Rights.read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "owner with meta refused");
  checkb "granted" true
    (Rights.equal
       (Pdom.effective intruder s.Stretch.sid ~global:Rights.none)
       Rights.read)

let stretch_rights_pt_route () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:(4 * 8192) () in
  (match Stretch.set_rights_pt s ~caller:f.pd f.translation Rights.read_write with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pt protect failed");
  for i = 0 to 3 do
    let pte = Mmu.lookup f.mmu ~vpn:(Addr.vpn_of_vaddr (Stretch.page_base s i)) in
    checkb "global rights updated" true
      (Rights.equal (Pte.global pte) Rights.read_write)
  done

(* --- Translation --- *)

let translation_map_validation () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:8192 () in
  let va = s.Stretch.base in
  (* Frame not owned: refused. *)
  (match Translation.map f.translation ~pdom:f.pd ~domain:1 ~va ~pfn:5 with
  | Error Translation.Frame_unusable -> ()
  | _ -> Alcotest.fail "unowned frame mapped");
  Ramtab.set_owner f.ramtab ~pfn:5 ~owner:1 ~width:13;
  (* No meta: refused. *)
  let intruder = Pdom.create ~asn:2 in
  (match Translation.map f.translation ~pdom:intruder ~domain:1 ~va ~pfn:5 with
  | Error Translation.No_meta -> ()
  | _ -> Alcotest.fail "no-meta map accepted");
  (* Outside any stretch: refused. *)
  (match
     Translation.map f.translation ~pdom:f.pd ~domain:1 ~va:(40 * 1024 * 1024)
       ~pfn:5
   with
  | Error Translation.Not_stretch -> ()
  | _ -> Alcotest.fail "unallocated va mapped");
  (* Proper map. *)
  (match Translation.map f.translation ~pdom:f.pd ~domain:1 ~va ~pfn:5 with
  | Ok cost -> checkb "cost positive" true (cost > 0)
  | Error _ -> Alcotest.fail "valid map refused");
  checkb "ramtab mapped" true (Ramtab.state f.ramtab ~pfn:5 = Ramtab.Mapped);
  (* Double map of the same frame: refused. *)
  (match Translation.map f.translation ~pdom:f.pd ~domain:1 ~va ~pfn:5 with
  | Error Translation.Frame_unusable -> ()
  | _ -> Alcotest.fail "double map accepted")

let translation_unmap_returns_pte () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:8192 ~global:Rights.read_write () in
  let va = s.Stretch.base in
  Ramtab.set_owner f.ramtab ~pfn:9 ~owner:1 ~width:13;
  (match Translation.map f.translation ~pdom:f.pd ~domain:1 ~va ~pfn:9 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "map failed");
  (* Dirty it through the MMU (FOW emulation). *)
  (match
     Mmu.access f.mmu ~rights:(Pdom.lookup f.pd) ~asn:1 va `Write
   with
  | Mmu.Ok _ -> ()
  | Mmu.Fault _ -> Alcotest.fail "write failed");
  (match Translation.unmap f.translation ~pdom:f.pd ~domain:1 ~va with
  | Ok (pte, _) ->
    checkb "old pte was dirty" true (Pte.dirty pte);
    check "frame" 9 (Pte.pfn pte)
  | Error _ -> Alcotest.fail "unmap failed");
  checkb "ramtab unused" true (Ramtab.state f.ramtab ~pfn:9 = Ramtab.Unused);
  (match Translation.unmap f.translation ~pdom:f.pd ~domain:1 ~va with
  | Error Translation.Not_mapped -> ()
  | _ -> Alcotest.fail "double unmap accepted")

let translation_protect_idempotent_cheap () =
  let f = make_fixture () in
  let s = alloc_stretch_exn f ~bytes:(100 * 8192) ~global:Rights.read () in
  let change =
    match
      Translation.protect_range f.translation ~pdom:f.pd ~base:s.Stretch.base
        ~npages:100 Rights.read_write
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "protect failed"
  in
  let idem =
    match
      Translation.protect_range f.translation ~pdom:f.pd ~base:s.Stretch.base
        ~npages:100 Rights.read_write
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "protect failed"
  in
  checkb "idempotent change much cheaper" true (idem * 2 < change)

(* --- Event channels --- *)

let event_channel_counts () =
  let ch = Event_chan.create ~name:"t" () in
  let prods = ref 0 in
  Event_chan.attach ch (fun () -> incr prods);
  Event_chan.send ch;
  Event_chan.send ch;
  check "count" 2 (Event_chan.count ch);
  check "pending" 2 (Event_chan.pending ch);
  check "notify ran per send" 2 !prods;
  check "ack drains" 2 (Event_chan.ack ch);
  check "nothing pending" 0 (Event_chan.pending ch)

(* --- Frames allocator --- *)

let frames_fixture ?(nframes = 64) () =
  let sim = Sim.create () in
  let ramtab = Ramtab.create ~nframes in
  (sim, ramtab, Frames.create sim ramtab ~nframes)

let frames_admission () =
  let _, _, fr = frames_fixture ~nframes:64 () in
  (match Frames.admit fr ~domain:1 ~guarantee:40 ~optimistic:10 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "admission refused");
  (match Frames.admit fr ~domain:2 ~guarantee:30 ~optimistic:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overbooked guarantee accepted");
  (match Frames.admit fr ~domain:2 ~guarantee:24 ~optimistic:100 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fitting guarantee refused")

let frames_guarantee_and_optimism () =
  let sim, ramtab, fr = frames_fixture ~nframes:8 () in
  let a =
    match Frames.admit fr ~domain:1 ~guarantee:2 ~optimistic:4 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let got = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 8 do
           match Frames.alloc fr a with
           | Some pfn -> got := pfn :: !got
           | None -> ()
         done));
  Sim.run sim;
  (* 2 guaranteed + 4 optimistic, never beyond g + o. *)
  check "capped at g+o" 6 (List.length !got);
  check "held" 6 (Frames.held a);
  check "stack tracks" 6 (Frame_stack.size (Frames.frame_stack a));
  List.iter
    (fun pfn ->
      Alcotest.(check (option int)) "ramtab owner" (Some 1)
        (Ramtab.owner ramtab ~pfn))
    !got;
  (* Free one back. *)
  (match !got with
  | pfn :: _ ->
    Frames.free fr a pfn;
    check "held drops" 5 (Frames.held a)
  | [] -> Alcotest.fail "no frames")

let frames_transparent_revocation () =
  let sim, _, fr = frames_fixture ~nframes:8 () in
  let hoarder =
    match Frames.admit fr ~domain:1 ~guarantee:1 ~optimistic:7 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let claimant =
    match Frames.admit fr ~domain:2 ~guarantee:4 ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let claimed = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         (* Hoarder takes everything (all unused). *)
         for _ = 1 to 8 do
           ignore (Frames.alloc fr hoarder)
         done;
         (* Claimant's guaranteed allocations must all succeed. *)
         for _ = 1 to 4 do
           match Frames.alloc fr claimant with
           | Some _ -> incr claimed
           | None -> ()
         done));
  Sim.run sim;
  check "guarantee met" 4 !claimed;
  checkb "transparent revocation used" true
    (Frames.transparent_revocations fr > 0);
  check "no intrusive rounds" 0 (Frames.revocations fr);
  (* Revocation is batched, so the hoarder may lose more than strictly
     necessary, but never below its own guarantee. *)
  checkb "hoarder shrunk" true (Frames.held hoarder < 8);
  checkb "hoarder keeps its guarantee" true
    (Frames.held hoarder >= Frames.guarantee hoarder)

let frames_intrusive_revocation () =
  let sim, ramtab, fr = frames_fixture ~nframes:8 () in
  let hoarder =
    match Frames.admit fr ~domain:1 ~guarantee:1 ~optimistic:7 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let claimant =
    match Frames.admit fr ~domain:2 ~guarantee:4 ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  (* The hoarder cooperates: on notification it "cleans" (marks
     unused) the requested frames after a delay. *)
  let notified = ref 0 in
  Frames.set_revocation_handler hoarder (fun ~k ~deadline:_ ->
      incr notified;
      ignore
        (Proc.spawn sim (fun () ->
             Proc.sleep (Time.ms 20);
             List.iter
               (fun pfn -> Ramtab.set_state ramtab ~pfn Ramtab.Unused)
               (Frame_stack.top_k (Frames.frame_stack hoarder) k);
             Frames.revocation_ready fr hoarder)));
  let claimed = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 8 do
           match Frames.alloc fr hoarder with
           | Some pfn ->
             (* Mark every hoarded frame as mapped (in use). *)
             Ramtab.set_state ramtab ~pfn Ramtab.Mapped
           | None -> ()
         done;
         for _ = 1 to 4 do
           match Frames.alloc fr claimant with
           | Some _ -> incr claimed
           | None -> ()
         done));
  Sim.run sim;
  check "guarantee met despite mapped frames" 4 !claimed;
  checkb "notification delivered" true (!notified > 0);
  checkb "intrusive round counted" true (Frames.revocations fr > 0);
  checkb "hoarder survived" true (Frames.is_live hoarder)

let frames_kill_on_timeout () =
  let sim, ramtab, fr = frames_fixture ~nframes:8 () in
  let hoarder =
    match Frames.admit fr ~domain:1 ~guarantee:1 ~optimistic:7 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  let claimant =
    match Frames.admit fr ~domain:2 ~guarantee:4 ~optimistic:0 with
    | Ok c -> c
    | Error e -> failwith (Frames.error_message e)
  in
  (* The hoarder ignores the notification entirely. *)
  Frames.set_revocation_handler hoarder (fun ~k:_ ~deadline:_ -> ());
  let killed = ref [] in
  Frames.set_kill_handler fr (fun d -> killed := d :: !killed);
  let claimed = ref 0 in
  let t_done = ref Time.zero in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 8 do
           match Frames.alloc fr hoarder with
           | Some pfn -> Ramtab.set_state ramtab ~pfn Ramtab.Mapped
           | None -> ()
         done;
         (match Frames.alloc fr claimant with
         | Some _ -> incr claimed
         | None -> ());
         t_done := Sim.now sim));
  Sim.run sim;
  check "allocation succeeded after the kill" 1 !claimed;
  Alcotest.(check (list int)) "hoarder killed" [ 1 ] !killed;
  checkb "dead" false (Frames.is_live hoarder);
  checkb "kill took the full deadline" true (!t_done >= Time.ms 100)

(* --- System --- *)

(* A fresh system maps no page-table page it does not use; a flat
   linear table of the 32-bit space would be 2^19 words on its own. *)
let fresh_system_is_small () =
  let words = Obj.reachable_words (Obj.repr (System.create ())) in
  checkb (Printf.sprintf "%d words < 100000" words) true (words < 100_000)

let suite =
  [ ( "core.bloks",
      [ Alcotest.test_case "first fit with hint" `Quick bloks_first_fit;
        Alcotest.test_case "exhaustion" `Quick bloks_exhaustion;
        Alcotest.test_case "error cases" `Quick bloks_errors;
        qtest bloks_invariants ] );
    ( "core.frame_stack",
      [ Alcotest.test_case "ordering operations" `Quick frame_stack_order ] );
    ( "core.pdom", [ Alcotest.test_case "rights table" `Quick pdom_rights ] );
    ( "core.stretch",
      [ Alcotest.test_case "geometry" `Quick stretch_geometry;
        Alcotest.test_case "meta right enforced" `Quick
          stretch_rights_meta_enforced;
        Alcotest.test_case "page-table protect route" `Quick
          stretch_rights_pt_route ] );
    ( "core.stretch_allocator",
      [ Alcotest.test_case "NULL mappings installed" `Quick
          stretch_allocator_null_mappings;
        Alcotest.test_case "requested base" `Quick
          stretch_allocator_requested_base;
        qtest stretch_allocator_no_overlap;
        Alcotest.test_case "destroy returns space" `Quick
          stretch_allocator_reuse_after_destroy ] );
    ( "core.translation",
      [ Alcotest.test_case "map validation" `Quick translation_map_validation;
        Alcotest.test_case "unmap returns dirty pte" `Quick
          translation_unmap_returns_pte;
        Alcotest.test_case "idempotent protect is cheap" `Quick
          translation_protect_idempotent_cheap ] );
    ( "core.event_chan",
      [ Alcotest.test_case "counts and ack" `Quick event_channel_counts ] );
    ( "core.frames",
      [ Alcotest.test_case "admission (sum g <= memory)" `Quick frames_admission;
        Alcotest.test_case "guarantee + optimistic caps" `Quick
          frames_guarantee_and_optimism;
        Alcotest.test_case "transparent revocation" `Quick
          frames_transparent_revocation;
        Alcotest.test_case "intrusive revocation" `Quick
          frames_intrusive_revocation;
        Alcotest.test_case "kill on deadline miss" `Quick frames_kill_on_timeout ] );
    ( "core.system",
      [ Alcotest.test_case "fresh system is small" `Quick fresh_system_is_small ] ) ]
