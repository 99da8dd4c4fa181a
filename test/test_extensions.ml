(* Tests for the extension features: the Entry abstraction, frame
   placement controls, extents, the file store, mapped files (shared
   and copy-on-write, paged over a file backing) and stream paging. *)

open Engine
open Hw
open Core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* --- Entry --- *)

let entry_fast_and_slow () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"e" ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let slow_jobs = ref [] in
  let entry =
    Entry.create d.System.dom ~name:"test"
      ~fast:(fun job -> if job mod 2 = 0 then `Done else `Defer)
      ~slow:(fun job -> slow_jobs := job :: !slow_jobs)
      ()
  in
  for job = 1 to 6 do
    Entry.notify entry job
  done;
  System.run sys ~until:(Time.sec 1);
  check "evens on fast path" 3 (Entry.fast_handled entry);
  check "odds on workers" 3 (Entry.slow_handled entry);
  Alcotest.(check (list int)) "worker FIFO" [ 1; 3; 5 ] (List.rev !slow_jobs);
  check "queue drained" 0 (Entry.depth entry)

let entry_defer_skips_fast () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"e" ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let entry =
    Entry.create d.System.dom ~name:"test"
      ~fast:(fun _ -> `Done)
      ~slow:(fun _ -> ())
      ()
  in
  Entry.defer entry 42;
  System.run sys ~until:(Time.sec 1);
  check "fast path bypassed" 0 (Entry.fast_handled entry);
  check "worker handled it" 1 (Entry.slow_handled entry)

(* --- Extents --- *)

let extents_basics () =
  let e = Usbs.Extents.create ~first:100 ~len:100 in
  let a = Option.get (Usbs.Extents.alloc e ~len:30) in
  check "first fit at start" 100 a.Usbs.Extents.start;
  let b = Option.get (Usbs.Extents.alloc e ~len:30) in
  check "packed" 130 b.Usbs.Extents.start;
  checkb "too big refused" true (Usbs.Extents.alloc e ~len:50 = None);
  Usbs.Extents.free e a;
  let c = Option.get (Usbs.Extents.alloc_at e ~start:110 ~len:10) in
  check "alloc_at honoured" 110 c.Usbs.Extents.start;
  checkb "overlap refused" true
    (Usbs.Extents.alloc_at e ~start:115 ~len:10 = None);
  Usbs.Extents.free e b;
  Usbs.Extents.free e c;
  check "all space back" 100 (Usbs.Extents.free_blocks e);
  (* Coalesced: a full-size allocation succeeds again. *)
  checkb "coalesced" true (Usbs.Extents.alloc e ~len:100 <> None)

let extents_never_overlap =
  QCheck.Test.make ~name:"extents never overlap under random ops" ~count:100
    QCheck.(list (pair bool (int_range 1 40)))
    (fun ops ->
      let e = Usbs.Extents.create ~first:0 ~len:500 in
      let held = ref [] in
      List.iter
        (fun (do_alloc, len) ->
          if do_alloc then (
            match Usbs.Extents.alloc e ~len with
            | Some ext -> held := ext :: !held
            | None -> ())
          else
            match !held with
            | ext :: rest ->
              Usbs.Extents.free e ext;
              held := rest
            | [] -> ())
        ops;
      let disjoint (a : Usbs.Extents.extent) (b : Usbs.Extents.extent) =
        a.Usbs.Extents.start + a.Usbs.Extents.len <= b.Usbs.Extents.start
        || b.Usbs.Extents.start + b.Usbs.Extents.len <= a.Usbs.Extents.start
      in
      let rec pairwise = function
        | [] -> true
        | x :: rest -> List.for_all (disjoint x) rest && pairwise rest
      in
      pairwise !held
      && Usbs.Extents.free_blocks e
         = 500 - List.fold_left (fun acc e -> acc + e.Usbs.Extents.len) 0 !held)

(* --- File store --- *)

let file_store_lifecycle () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let store = System.file_store sys in
  let f =
    match Usbs.File_store.create_file store ~name:"data" ~bytes:(5 * 8192) with
    | Ok f -> f
    | Error e -> failwith e
  in
  check "pages" 5 (Usbs.File_store.file_pages f);
  checkb "findable" true (Usbs.File_store.find store "data" <> None);
  (match Usbs.File_store.create_file store ~name:"data" ~bytes:8192 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name accepted");
  check "page lbas contiguous"
    (Usbs.File_store.lba_of_page f 0 + 16)
    (Usbs.File_store.lba_of_page f 1);
  Alcotest.check_raises "page bound"
    (Invalid_argument "File_store: page index out of file") (fun () ->
      ignore (Usbs.File_store.lba_of_page f 5));
  let free0 = Usbs.File_store.free_blocks store in
  Usbs.File_store.delete store f;
  check "space returned" (free0 + 80) (Usbs.File_store.free_blocks store);
  checkb "gone" true (Usbs.File_store.find store "data" = None)

(* --- Mapped-file drivers --- *)

(* Count USD write transactions that landed inside an extent. *)
let writes_in sys ~start ~len =
  let n = ref 0 in
  Trace.iter
    (fun _ ev ->
      match ev with
      | Usbs.Usd.Txn { op = Usbs.Usd.Write; lba; _ }
        when lba >= start && lba < start + len ->
        incr n
      | _ -> ())
    (Usbs.Usd.trace (System.usd sys));
  !n

(* Map an 8-page file into a fresh domain that has two frames, run
   [work d s file] on the domain's thread once the mapping is bound,
   and return the system, the file, the mapping's counters and what
   [work] returned. *)
let mapped_fixture ~mode work =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let store = System.file_store sys in
  let file =
    match Usbs.File_store.create_file store ~name:"lib.so" ~bytes:(8 * 8192) with
    | Ok f -> f
    | Error e -> failwith e
  in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch d ~bytes:(8 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
  let result = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let info =
           match
             System.bind_mapped d ~mode ~initial_frames:2 ~file ~qos s ()
           with
           | Ok (_, info) -> info
           | Error e -> failwith (System.error_message e)
         in
         let r = work d s file in
         result := Some (info (), r)));
  System.run sys ~until:(Time.sec 60);
  match !result with
  | Some (info, r) -> (sys, file, info, r)
  | None -> Alcotest.fail "mapped workload did not finish"

(* Read every page twice (two sweeps with 2 frames), then dirty every
   page, then read everything once more. *)
let sweep d s _ =
  for _ = 1 to 2 do
    for i = 0 to 7 do
      Domains.access d.System.dom (Stretch.page_base s i) `Read
    done
  done;
  for i = 0 to 7 do
    Domains.access d.System.dom (Stretch.page_base s i) `Write
  done;
  for i = 0 to 7 do
    Domains.access d.System.dom (Stretch.page_base s i) `Read
  done

let mapped_shared_writes_back () =
  let sys, file, info, () = mapped_fixture ~mode:System.Shared sweep in
  checkb "read from the file" true (info.Tier.Backing.file_reads >= 8);
  checkb "dirty pages written back to the file" true
    (info.Tier.Backing.file_writebacks >= 6);
  check "no cow traffic" 0
    (info.Tier.Backing.cow_writes + info.Tier.Backing.cow_reads);
  (* The write-backs really landed in the file's extent. *)
  checkb "file extent written" true
    (writes_in sys
       ~start:(Usbs.File_store.extent_start file)
       ~len:(16 * Usbs.File_store.file_pages file)
     > 0)

let mapped_private_cow () =
  let sys, file, info, () = mapped_fixture ~mode:System.Private sweep in
  checkb "read from the file" true (info.Tier.Backing.file_reads >= 8);
  check "the file is never written" 0 info.Tier.Backing.file_writebacks;
  check "file extent untouched" 0
    (writes_in sys
       ~start:(Usbs.File_store.extent_start file)
       ~len:(16 * Usbs.File_store.file_pages file));
  checkb "dirty copies went to the cow backing" true
    (info.Tier.Backing.cow_writes >= 6);
  checkb "paged back in from the cow backing" true
    (info.Tier.Backing.cow_reads >= 6)

(* A persistent write fault on a shared mapping's file: the paged
   driver answers the lost write exactly once (the mapped range leaves
   no slot to re-site the page to), the domain lives on, and the lost
   page's next access is a domain fault, not a simulator abort. *)
let mapped_lost_write_is_a_fault () =
  let _, _, _, (d, next) =
    mapped_fixture ~mode:System.Shared (fun d s file ->
        Inject.arm
          { Inject.default_plan with
            seed = 3;
            blok_faults =
              [ { Inject.bf_first = Usbs.File_store.lba_of_page file 0;
                  bf_len =
                    Usbs.File_store.extent_blocks file
                    / Usbs.File_store.file_pages file;
                  bf_op = Some Inject.Write;
                  bf_transient = None } ] };
        (* Dirty page 0, then read two more pages through the two
           frames: FIFO evicts page 0 and its write-back is lost. *)
        Domains.access d.System.dom (Stretch.page_base s 0) `Write;
        for i = 1 to 2 do
          Domains.access d.System.dom (Stretch.page_base s i) `Read
        done;
        (d, Domains.try_access d.System.dom (Stretch.page_base s 0) `Read))
  in
  let injected = (Inject.tally ()).Inject.injected_errors
  and killed = (Inject.tally ()).Inject.killed
  and accounted = Inject.accounted () in
  Inject.disarm ();
  checkb "the domain lives" true (Domains.alive d.System.dom);
  check "one write fault injected" 1 injected;
  check "answered once, as a loss" 1 killed;
  checkb "books balance" true accounted;
  checkb "the lost page's next read is a domain fault" true
    (Result.is_error next)

(* --- Stream paging --- *)

let stream_paging_single_txn () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:12 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch d ~bytes:(16 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let result = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
         let _, h =
           match
             System.bind_paged d ~initial_frames:12
               ~policy:
                 { Policy.Spec.default with
                   prefetch = Policy.Prefetch.Stream 4 }
               ~swap_bytes:(32 * Addr.page_size) ~qos s ()
           with
           | Ok x -> x
           | Error e -> failwith (System.error_message e)
         in
         (* Populate sequentially, sweep once to swap everything out,
            then read back sequentially: page-ins should batch. *)
         for i = 0 to 15 do
           Domains.access d.System.dom (Stretch.page_base s i) `Write
         done;
         for i = 0 to 15 do
           Domains.access d.System.dom (Stretch.page_base s i) `Read
         done;
         for i = 0 to 15 do
           Domains.access d.System.dom (Stretch.page_base s i) `Read
         done;
         result := Some (Sd_paged.info h)));
  System.run sys ~until:(Time.sec 120);
  match !result with
  | None -> Alcotest.fail "did not finish"
  | Some info ->
    checkb "prefetching happened" true (info.Sd_paged.prefetched > 0);
    (* The stats are disjoint: a prefetched page is never also counted
       as a demand page-in, so demand page-ins equal the swap-in
       faults the domain actually took. *)
    Alcotest.(check int)
      "page-ins are exactly the demand faults"
      (Domains.faults_taken d.System.dom - info.Sd_paged.demand_zeros)
      info.Sd_paged.page_ins;
    checkb "read-ahead cut the fault count" true
      (info.Sd_paged.page_ins + info.Sd_paged.prefetched
       > Domains.faults_taken d.System.dom - info.Sd_paged.demand_zeros)

let stream_paging_throughput () =
  let r = Experiments.Ablations.run_stream ~duration:(Time.sec 170) () in
  match r.Experiments.Ablations.rates with
  | (0, base, base_txns) :: rest ->
    List.iter
      (fun (ra, mbit, txns) ->
        checkb (Printf.sprintf "readahead %d not slower" ra) true
          (mbit >= base *. 0.98);
        checkb (Printf.sprintf "readahead %d fewer txns" ra) true
          (txns < base_txns))
      rest;
    (* The biggest read-ahead should show a clear win. *)
    (match List.rev rest with
    | (_, best, _) :: _ ->
      checkb "readahead 8 at least 20% faster" true (best > base *. 1.2)
    | [] -> Alcotest.fail "no readahead rows")
  | _ -> Alcotest.fail "missing baseline row"

let suite =
  [ ( "ext.entry",
      [ Alcotest.test_case "fast path and workers" `Quick entry_fast_and_slow;
        Alcotest.test_case "defer skips fast path" `Quick entry_defer_skips_fast ] );
    ( "ext.extents",
      [ Alcotest.test_case "alloc/alloc_at/coalesce" `Quick extents_basics;
        qtest extents_never_overlap ] );
    ( "ext.file_store",
      [ Alcotest.test_case "lifecycle" `Quick file_store_lifecycle ] );
    ( "ext.mapped",
      [ Alcotest.test_case "shared mapping writes back" `Quick
          mapped_shared_writes_back;
        Alcotest.test_case "private mapping is copy-on-write" `Quick
          mapped_private_cow;
        Alcotest.test_case "a lost write is a domain fault" `Quick
          mapped_lost_write_is_a_fault ] );
    ( "ext.stream_paging",
      [ Alcotest.test_case "page-ins batch into one txn" `Quick
          stream_paging_single_txn;
        Alcotest.test_case "throughput gain under fixed guarantee" `Slow
          stream_paging_throughput ] ) ]

(* --- More lifecycle behaviours --- *)

let kill_mid_paging_releases_swap () =
  (* Killing a domain mid-run must close its swap file (USD client
     retired, extent returned) and free its frames. *)
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"victim" ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch d ~bytes:(16 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let sfs_free0 = Usbs.Sfs.free_blocks (System.sfs sys) in
  let frames_free0 = Frames.free_frames (System.frames sys) in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
         (match
            System.bind_paged d ~initial_frames:2
              ~swap_bytes:(32 * Addr.page_size) ~qos s ()
          with
         | Ok _ -> ()
         | Error e -> failwith (System.error_message e));
         let rec loop () =
           for i = 0 to 15 do
             Domains.access d.System.dom (Stretch.page_base s i) `Write
           done;
           loop ()
         in
         loop ()));
  (* Let it page for a while, then kill it. *)
  System.run sys ~until:(Time.sec 5);
  checkb "was actually paging" true (Domains.faults_taken d.System.dom > 10);
  System.kill_domain sys d;
  System.run sys ~until:(Time.sec 6);
  check "swap extent returned" sfs_free0 (Usbs.Sfs.free_blocks (System.sfs sys));
  check "frames returned" frames_free0 (Frames.free_frames (System.frames sys));
  checkb "usd has no leftover work" true
    (Usbs.Usd.utilisation (System.usd sys) < 1e-9)

let mapped_driver_relinquish () =
  (* Revocation reaches mapped stretches too: a hoarding domain with a
     private mapping cleans dirty pages to its cow backing and yields
     frames when a newcomer claims its guarantee. *)
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let store = System.file_store sys in
  let file =
    match
      Usbs.File_store.create_file store ~name:"big.dat" ~bytes:(64 * 8192)
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let hog =
    match
      System.add_domain sys ~name:"hog" ~guarantee:2 ~optimistic:80 ()
    with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch hog ~bytes:(64 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  ignore
    (Domains.spawn_thread hog.System.dom ~name:"main" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) () in
         (match
            System.bind_mapped hog ~mode:System.Private ~initial_frames:2
              ~file ~qos s ()
          with
         | Ok _ -> ()
         | Error e -> failwith (System.error_message e));
         for i = 0 to 63 do
           Domains.access hog.System.dom (Stretch.page_base s i) `Write
         done));
  System.run sys ~until:(Time.sec 60);
  checkb "hog filled memory" true
    (Frames.held hog.System.frames_client > 50);
  let claimant =
    match
      System.add_domain sys ~name:"claimant" ~guarantee:60 ~optimistic:0 ()
    with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let got = ref 0 in
  ignore
    (Domains.spawn_thread claimant.System.dom ~name:"claim" (fun () ->
         for _ = 1 to 60 do
           match
             Frames.alloc (System.frames sys) claimant.System.frames_client
           with
           | Some _ -> incr got
           | None -> ()
         done));
  System.run sys ~until:(Time.sec 120);
  check "claimant satisfied" 60 !got;
  checkb "hog cooperated and lives" true (Domains.alive hog.System.dom)

let free_stretch_reuses_address_space () =
  let sys = Experiments.Harness.fresh_system ~main_memory_mb:1 () in
  let d =
    match System.add_domain sys ~name:"app" ~guarantee:4 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let free0 = Stretch_allocator.free_bytes (System.stretch_allocator sys) in
  let s =
    match System.alloc_stretch d ~bytes:(4 * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  (match System.bind_physical d ~prealloc:4 s with
  | Ok _ -> ()
  | Error e -> failwith (System.error_message e));
  ignore
    (Domains.spawn_thread d.System.dom ~name:"touch" (fun () ->
         Domains.access d.System.dom s.Stretch.base `Write));
  System.run sys ~until:(Time.sec 5);
  System.free_stretch d s;
  check "address space coalesced" free0
    (Stretch_allocator.free_bytes (System.stretch_allocator sys));
  (* The address now faults as unallocated, and the frame behind the
     old mapping went back to Unused. *)
  let unallocated = ref false in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"probe" (fun () ->
         match Domains.try_access d.System.dom s.Stretch.base `Read with
         | Error (f, _) -> unallocated := f.Fault.kind = Mmu.Unallocated
         | Ok () -> ()));
  System.run sys ~until:(Time.sec 10);
  checkb "va unallocated after destroy" true !unallocated

let lifecycle_suite =
  [ ( "ext.lifecycle",
      [ Alcotest.test_case "kill mid-paging releases swap" `Quick
          kill_mid_paging_releases_swap;
        Alcotest.test_case "mapped driver under revocation" `Quick
          mapped_driver_relinquish;
        Alcotest.test_case "free_stretch reuses address space" `Quick
          free_stretch_reuses_address_space ] ) ]

let suite = suite @ lifecycle_suite
