(* Golden digests of scheduling decisions.

   A seed-42 run drives the CPU, USD and link schedulers through every
   decision path they have: EDF picks with and without budget, slack,
   USD and link laxity, roll-over deficits, the laxity-off ablation,
   idle waits bounded by a period boundary, retirement mid-run. The
   run prints the USD traces, every link trace, a log of CPU-request
   completions and the QoS auditor's violation list (with the auditor
   set so strict that every underserved backlogged period is flagged,
   so the list records the order of the boundary-hook calls). The MD5
   of each, of the scale experiment's report at 64 and 128 domains,
   and of short remote-tier reports, is pinned below: any change to a
   scheduling decision, to the order of trace records or to the order
   of QoS-audit calls changes a digest. A change that is meant to move
   them must say why and re-pin them. *)

open Engine

let md5 s = Digest.to_hex (Digest.string s)
let ms = Time.ms
let us = Time.us

(* --- The scheduler run ---------------------------------------------- *)

let pp_link_event ppf = function
  | Usnet.Link.Tx { client; bytes; dur } ->
    Format.fprintf ppf "tx %s %d dur=%d" client bytes dur
  | Usnet.Link.Slack_tx { client; bytes; dur } ->
    Format.fprintf ppf "slack %s %d dur=%d" client bytes dur
  | Usnet.Link.Alloc { client } -> Format.fprintf ppf "alloc %s" client
  | Usnet.Link.Lax { client; dur } ->
    Format.fprintf ppf "lax %s dur=%d" client dur

let print_trace pp tr =
  let b = Buffer.create 65536 in
  Trace.iter
    (fun at ev -> Printf.bprintf b "%d %s\n" at (Format.asprintf "%a" pp ev))
    tr;
  Buffer.contents b

let forever f = while true do f () done

type run = {
  usd : string;  (** the default USD's printed trace *)
  usd_ablated : string;  (** every l = 0, roll-over off *)
  links : string list;  (** each link's printed trace *)
  cpu : string;  (** CPU-request completions, in completion order *)
  audit : string;  (** every retained QoS violation, in order *)
}

(* [no_laxity] admits every client with l = 0: the laxity-off
   ablation. *)
let usd_clients ?(no_laxity = false) sim rng usd ~prefix =
  let nblocks =
    (Disk.Disk_model.params (Usbs.Usd.disk usd)).Disk.Disk_params.nblocks
  in
  let admit name ~period ~slice ~extra ~laxity =
    let laxity = if no_laxity then 0 else laxity in
    let qos = Usbs.Qos.make ~period ~slice ~extra ~laxity () in
    match
      Usbs.Usd.admit usd ~name:(prefix ^ name) ~qos ~channel_depth:4 ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let lba () = Rng.int rng (nblocks - 64) in
  (* A pager: one read at a time with think time between, the
     short-block pattern laxity exists for. *)
  let pager =
    admit "pager" ~period:(ms 90) ~slice:(ms 30) ~extra:false ~laxity:(ms 10)
  in
  ignore
    (Proc.spawn sim (fun () ->
         forever (fun () ->
             ignore
               (Usbs.Usd.transact usd pager Usbs.Usd.Read ~lba:(lba ())
                  ~nblocks:16);
             Proc.sleep (us (200 + Rng.int rng 3000)))));
  (* A streamer with the x flag: keeps its channel full, so it
     overruns its slice and lives on slack between allocations. *)
  let stream =
    admit "stream" ~period:(ms 230) ~slice:(ms 20) ~extra:true ~laxity:(ms 2)
  in
  let next = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         forever (fun () ->
             next := (!next + 64) mod (nblocks - 64);
             ignore
               (Usbs.Usd.submit usd stream Usbs.Usd.Write ~lba:!next
                  ~nblocks:64))));
  (* Bursts of reads from an x-flagged client with no laxity, retired
     part-way through with requests still queued. *)
  let burst =
    admit "burst" ~period:(ms 47) ~slice:(ms 12) ~extra:true ~laxity:0
  in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 12 do
           let ivs =
             List.init 6 (fun _ ->
                 Usbs.Usd.submit usd burst Usbs.Usd.Read ~lba:(lba ())
                   ~nblocks:8)
           in
           List.iter
             (function
               | Ok iv -> ignore (Sync.Ivar.read iv) | Error `Retired -> ())
             ivs;
           Proc.sleep (ms (80 + Rng.int rng 200))
         done));
  ignore (Sim.after sim (ms 1700) (fun () -> Usbs.Usd.retire usd burst));
  (* A late-comer with a long period. *)
  ignore
    (Sim.after sim (ms 913) (fun () ->
         let late =
           admit "late" ~period:(ms 410) ~slice:(ms 40) ~extra:false
             ~laxity:(ms 5)
         in
         ignore
           (Proc.spawn sim (fun () ->
                forever (fun () ->
                    ignore
                      (Usbs.Usd.transact usd late Usbs.Usd.Write ~lba:(lba ())
                         ~nblocks:32);
                    Proc.sleep (ms (1 + Rng.int rng 20)))))))

let link_clients sim rng link =
  let admit name ~period ~slice ~extra ~laxity ~queue_depth =
    match
      Usnet.Link.admit link ~name ~period ~slice ~extra ~laxity ~queue_depth ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  (* A bulk sender: a page as six MTU packets with think time between
     them, holding the link under its laxity. *)
  let bulk =
    admit "bulk" ~period:(ms 11) ~slice:(ms 3) ~extra:false ~laxity:(us 300)
      ~queue_depth:8
  in
  ignore
    (Proc.spawn sim (fun () ->
         forever (fun () ->
             for _ = 1 to 6 do
               ignore (Usnet.Link.transmit link bulk ~bytes:1500);
               Proc.sleep (us (20 + Rng.int rng 120))
             done;
             Proc.sleep (us (500 + Rng.int rng 4000)))));
  (* A chatty x-flagged client whose bursts outrun its slice and are
     finished on slack. *)
  let chatty =
    admit "chatty" ~period:(ms 7) ~slice:(us 600) ~extra:true ~laxity:0
      ~queue_depth:32
  in
  ignore
    (Proc.spawn sim (fun () ->
         forever (fun () ->
             let n = 1 + Rng.int rng 24 in
             let ivs =
               List.init n (fun _ ->
                   Usnet.Link.send link chatty ~bytes:(64 + Rng.int rng 1400))
             in
             List.iter
               (function Ok iv -> Sync.Ivar.read iv | Error `Retired -> ())
               ivs;
             Proc.sleep (us (100 + Rng.int rng 6000)))));
  (* A background sender without the x flag: blocks on its full ring
     and waits out its period boundaries. *)
  let bg =
    admit "bg" ~period:(ms 23) ~slice:(ms 2) ~extra:false ~laxity:0
      ~queue_depth:4
  in
  ignore
    (Proc.spawn sim (fun () ->
         forever (fun () ->
             for _ = 1 to 40 do
               ignore (Usnet.Link.send link bg ~bytes:1500)
             done;
             Proc.sleep (ms (Rng.int rng 30)))));
  ignore (Sim.after sim (ms 1300) (fun () -> Usnet.Link.retire link chatty))

let cpu_clients sim rng cpu log =
  let admit name ~period ~slice ~extra =
    match Sched.Cpu.admit cpu ~name ~period ~slice ~extra () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let worker c ~think ~burst =
    ignore
      (Proc.spawn sim (fun () ->
           forever (fun () ->
               match Sched.Cpu.consume cpu c (burst ()) with
               | Ok () ->
                 Printf.bprintf log "%d %s\n" (Sim.now sim) (Sched.Cpu.name c);
                 Proc.sleep (think ())
               | Error `Removed -> Proc.sleep (ms 1000))))
  in
  let a = admit "a" ~period:(ms 9) ~slice:(ms 3) ~extra:true in
  worker a
    ~think:(fun () -> us (Rng.int rng 4000))
    ~burst:(fun () -> us (100 + Rng.int rng 1500));
  (* No x flag and requests longer than the slice: b waits out its
     period boundaries while the CPU idles. *)
  let b = admit "b" ~period:(ms 21) ~slice:(ms 2) ~extra:false in
  worker b
    ~think:(fun () -> us (Rng.int rng 8000))
    ~burst:(fun () -> us (1000 + Rng.int rng 6000));
  let c = admit "c" ~period:(ms 7) ~slice:(ms 1) ~extra:true in
  worker c
    ~think:(fun () -> us (200 + Rng.int rng 900))
    ~burst:(fun () -> us (50 + Rng.int rng 900));
  ignore (Sim.after sim (ms 1500) (fun () -> Sched.Cpu.remove cpu c))

let scheduler_run () =
  Obs.set_enabled true;
  Obs.reset ();
  Obs.Qos_audit.set_tolerance 0.0;
  Obs.Qos_audit.set_patience 1;
  Fun.protect
    ~finally:(fun () ->
      Obs.Qos_audit.set_tolerance 0.1;
      Obs.Qos_audit.set_patience 2;
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let sim = Sim.create ~seed:42 () in
      let rng = Sim.rng sim in
      let usd = Usbs.Usd.create sim (Disk.Disk_model.create ()) in
      let usd_ablated =
        Usbs.Usd.create ~rollover:false sim (Disk.Disk_model.create ())
      in
      usd_clients sim (Rng.split rng) usd ~prefix:"";
      usd_clients ~no_laxity:true sim (Rng.split rng) usd_ablated
        ~prefix:"ab-";
      let fast = Usnet.Link.create ~name:"fast" sim in
      let plain = Usnet.Link.create ~name:"plain" ~rollover:false sim in
      link_clients sim (Rng.split rng) fast;
      link_clients sim (Rng.split rng) plain;
      let cpu = Sched.Cpu.create sim in
      let log = Buffer.create 65536 in
      cpu_clients sim (Rng.split rng) cpu log;
      Sim.run ~until:(Time.sec 3) sim;
      let audit = Buffer.create 4096 in
      Printf.bprintf audit "total %d dropped %d\n" (Obs.Qos_audit.total ())
        (Obs.Qos_audit.events_dropped ());
      List.iter
        (fun (at, v) ->
          Printf.bprintf audit "%d %s\n" at
            (Format.asprintf "%a" Obs.Qos_audit.pp_violation v))
        (Obs.Qos_audit.events ());
      { usd = print_trace Usbs.Usd.pp_event (Usbs.Usd.trace usd);
        usd_ablated =
          print_trace Usbs.Usd.pp_event (Usbs.Usd.trace usd_ablated);
        links =
          List.map
            (fun l -> print_trace pp_link_event (Usnet.Link.trace l))
            [ fast; plain ];
        cpu = Buffer.contents log;
        audit = Buffer.contents audit })

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

let lines s = List.length (String.split_on_char '\n' s) - 1

let scheduler_digests () =
  let r = scheduler_run () in
  (* The run must reach every path the digests stand for. *)
  List.iter
    (fun (what, s, record) ->
      if not (contains s (" " ^ record ^ " ")) then
        Alcotest.failf "golden run never recorded %S in the %s trace" record
          what)
    [ ("usd", r.usd, "lax"); ("usd", r.usd, "slack"); ("usd", r.usd, "alloc");
      ("usd", r.usd, "txn"); ("ablated usd", r.usd_ablated, "slack");
      ("fast link", List.nth r.links 0, "lax");
      ("fast link", List.nth r.links 0, "slack");
      ("plain link", List.nth r.links 1, "lax");
      ("plain link", List.nth r.links 1, "slack") ];
  Alcotest.(check bool) "cpu log non-trivial" true (lines r.cpu > 100);
  Alcotest.(check bool) "audit flagged something" true (lines r.audit > 1);
  let pin what expected s = Alcotest.(check string) what expected (md5 s) in
  pin "usd trace" "71faf64a59883f33d757026631eb09fb" r.usd;
  pin "ablated usd trace" "d6ae363244a1d0164f4ab243994ba4e1" r.usd_ablated;
  pin "fast link trace" "b638660f52e361b3dc186c5c7ea3257e" (List.nth r.links 0);
  pin "plain link trace" "671bf2f19d47523daabf36b78ae75676"
    (List.nth r.links 1);
  pin "cpu completions" "9d9999c9ed96f8f9a086cab1cb758114" r.cpu;
  pin "qos audit" "765e3d5e2dcf12156e7b3e472f49a088" r.audit

(* --- The scale report ----------------------------------------------- *)

(* The JSON record plus the audit summary the printed report carries. *)
let scale_report domains =
  let r = Experiments.Scale.run ~domains () in
  let a = r.Experiments.Scale.audit in
  Printf.sprintf "%s\naudited %d violations %d\n"
    (Json.to_string (Experiments.Scale.to_json r))
    a.Obs.Qos_audit.audited_boundaries a.Obs.Qos_audit.violations

let scale_digest domains expected () =
  Alcotest.(check string)
    (Printf.sprintf "scale report, %d domains" domains)
    expected
    (md5 (scale_report domains))

(* --- The remote-tier reports ------------------------------------------ *)

(* Short same-seed runs of the remote-tier experiments and the backing
   matrix, each pinned by the MD5 of its JSON. The failover report
   (seed 5, 6 s) ends with 0 fleet hits and the erasure report (seed
   5, 8 s) with 15-16 per cell, both before their measured loops
   begin: they pin the swap-populate phase, demotes, the fault plan,
   repair and the books. The remote, failover and erasure bench pins
   hash slices of one 6 s matrix run, the cells each of those
   comparisons reads; at 6 s every cell has 0 measured accesses and 0
   fleet hits, so they too pin only the disk-bound swap-populate phase.
   The backing matrix at 20 s reaches the read path: every fleet cell
   has fleet hits (tier_hot 1 314) and both wipe cells reconstruct
   (the R = 2 one by reading the surviving copy), so a change to a
   fetch, the cache or a degraded read moves its digest. *)
let report_digest what expected report () =
  Alcotest.(check string) what expected (md5 (Json.to_string (report ())))

let short_matrix =
  lazy (Experiments.Harness.run_matrix ~seed:42 ~duration:(Time.sec 6) ())

let matrix_slice names () =
  let open Experiments.Harness in
  let m = Lazy.force short_matrix in
  Json.list
    (List.map
       (fun n ->
         matrix_cell_json (List.find (fun c -> c.mc_name = n) m.m_cells))
       names)

let backing_matrix_pinned () =
  let open Experiments.Harness in
  let m = run_matrix ~seed:42 ~duration:(Time.sec 20) () in
  let cell name = List.find (fun c -> c.mc_name = name) m.m_cells in
  let fleet_count f c = Option.fold ~none:0 ~some:f c.mc_fleet in
  Alcotest.(check bool) "verdict" true (matrix_ok m);
  List.iter
    (fun c ->
      if c.mc_fleet <> None then
        Alcotest.(check bool)
          (c.mc_name ^ " has fleet hits") true
          (c.mc_store.Tier.Fleet.st_fleet_hits > 0))
    m.m_cells;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " reconstructed") true
        (fleet_count (fun s -> s.Tier.Fleet.reconstructions) (cell name) > 0))
    [ "replicated_wipe"; "erasure_wipe" ];
  Alcotest.(check string) "backing matrix, seed 42, 20 s"
    "5d7589fd6c7b4753bc52da4f477845ff"
    (md5 (Json.to_string (matrix_json m)))

let remote_tier_pins =
  let open Experiments in
  let s = Time.sec in
  [ Alcotest.test_case "remote bench pinned" `Quick
      (report_digest "remote bench cells, seed 42, 6 s"
         "504d38e1e1a48d438e26a9d87ea1311c"
         (matrix_slice
            [ "disk_seq"; "disk_rand"; "disk_hot"; "tier_seq"; "tier_rand";
              "tier_hot" ]));
    Alcotest.test_case "failover report pinned" `Quick
      (report_digest "failover report, seed 5, 6 s"
         "4bb111acb909e08544145ef17e9343bf" (fun () ->
           Failover.to_json (Failover.run ~seed:5 ~duration:(s 6) ())));
    Alcotest.test_case "failover bench pinned" `Quick
      (report_digest "failover bench cells, seed 42, 6 s"
         "cfc4a7314348590d673a0128abaac220"
         (matrix_slice [ "disk_hot"; "replicated"; "replicated_wipe" ]));
    Alcotest.test_case "erasure report pinned" `Quick
      (report_digest "erasure report, seed 5, 8 s"
         "62429ebe4e3065b453c83313951f2638" (fun () ->
           Erasure.to_json (Erasure.run ~seed:5 ~duration:(s 8) ())));
    Alcotest.test_case "erasure bench pinned" `Quick
      (report_digest "erasure bench cells, seed 42, 6 s"
         "e393826882ad229b3358c4bc0e9a8fb4"
         (matrix_slice
            [ "disk_hot"; "replicated"; "erasure"; "erasure_wipe" ]));
    Alcotest.test_case "backing matrix pinned" `Quick backing_matrix_pinned ]

let suite =
  [ ( "golden.schedulers",
      [ Alcotest.test_case "CPU, USD and link decisions pinned" `Quick
          scheduler_digests ] );
    ( "golden.scale",
      [ Alcotest.test_case "64-domain report pinned" `Slow
          (scale_digest 64 "0d55062187871b9e5eb5994820559876");
        Alcotest.test_case "128-domain report pinned" `Slow
          (scale_digest 128 "3ab592f3cca8a1f74f2705c5d58ec39c") ] );
    ("golden.remote-tier", remote_tier_pins) ]
