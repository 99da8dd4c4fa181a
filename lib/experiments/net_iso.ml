open Engine
open Core

(* --- Link shares: Figure 7 transplanted to the network ------------- *)

type shares_result = { senders : (string * float * float) list }

let packet_bytes = 1514

let run_shares ?(duration = Time.sec 30) () =
  let sim = Sim.create () in
  let link = Usnet.Link.create sim in
  let senders =
    List.map
      (fun slice_ms ->
        let name = Printf.sprintf "tx%d" (slice_ms * 100 / 250) in
        let c =
          match
            Usnet.Link.admit link ~name ~period:(Time.ms 250)
              ~slice:(Time.ms slice_ms) ()
          with
          | Ok c -> c
          (* Setup failwiths throughout: admissions here are sized to
             fit by construction, so a refusal is a bug in the
             experiment, not a measurable outcome. *)
          | Error e -> failwith (Usnet.Link.admit_error_message e)
        in
        (* Flat out: keep the transmit ring full. *)
        ignore
          (Proc.spawn ~name sim (fun () ->
               let rec loop () =
                 (match Usnet.Link.send link c ~bytes:packet_bytes with
                 | Ok _ | Error `Retired -> ());
                 Proc.yield ();
                 loop ()
               in
               loop ()));
        (name, c))
      [ 25; 50; 100 ]
  in
  Sim.run ~until:duration sim;
  let rates =
    List.map
      (fun (name, c) ->
        ( name,
          float_of_int (Usnet.Link.bytes_sent c)
          *. 8.0 /. Time.to_sec duration /. 1e6 ))
      senders
  in
  let base = match rates with (_, r) :: _ -> r | [] -> nan in
  { senders = List.map (fun (n, r) -> (n, r, r /. base)) rates }

let print_shares r =
  Report.heading
    "Network link under guarantees: the Fig-7 result on another resource";
  Report.table
    ~header:[ "sender"; "Mbit/s"; "ratio" ]
    (List.map
       (fun (n, mbit, ratio) -> [ n; Report.f2 mbit; Report.f2 ratio ])
       r.senders);
  print_newline ();
  print_endline
    "The same Atropos EDF core that schedules the disk schedules the link:";
  print_endline "three flat-out senders with 10/20/40% guarantees get 1:2:4."

(* --- Kernel crosstalk across orthogonal resources ------------------- *)

type crosstalk_result = {
  nemesis_mean_ms : float;
  nemesis_p95_ms : float;
  shared_mean_ms : float;
  shared_p95_ms : float;
  packets : int * int;
}

(* A heavy pager: domain writing through a tiny cache, forgetful
   backing, 20% disk guarantee. *)
let start_heavy_pager sys =
  let d =
    match
      System.add_domain sys ~name:"heavy" ~guarantee:2 ~optimistic:0 ()
    with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let s =
    match System.alloc_stretch d ~bytes:(2 * 1024 * 1024) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"churn" (fun () ->
         let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) () in
         (match
            System.bind_paged d ~forgetful:true ~initial_frames:2
              ~swap_bytes:(8 * 1024 * 1024) ~qos s ()
          with
         | Ok _ -> ()
         | Error e -> failwith (System.error_message e));
         let n = Stretch.npages s in
         let rec loop () =
           for i = 0 to n - 1 do
             Domains.access d.System.dom (Stretch.page_base s i) `Write
           done;
           loop ()
         in
         loop ()));
  d

(* The streamer sends one packet every [gap]; latency from submission
   to wire exit is recorded after warm-up. *)
let streamer_loop ~sim ~send ~gap ~warmup stats () =
  let rec loop () =
    let t0 = Sim.now sim in
    send ();
    if Sim.now sim > warmup then
      Stats.add stats (Time.to_ms (Time.diff (Sim.now sim) t0));
    let dt = Time.diff (Sim.now sim) t0 in
    if dt < gap then Proc.sleep (gap - dt);
    loop ()
  in
  loop ()

let gap = Time.ms 2
let warmup = Time.sec 10

(* Nemesis structure: the streamer owns a link guarantee and transmits
   directly; the pager self-pages. Orthogonal resources, no shared
   servers. *)
let run_nemesis ~duration =
  let sys = Harness.fresh_system () in
  let sim = System.sim sys in
  let link = Usnet.Link.create sim in
  let tx =
    match
      Usnet.Link.admit link ~name:"stream" ~period:(Time.ms 10)
        ~slice:(Time.ms 2) ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  ignore (start_heavy_pager sys);
  let stats = Stats.create ~keep_samples:true () in
  ignore
    (Proc.spawn ~name:"stream" sim
       (streamer_loop ~sim
          ~send:(fun () ->
            match Usnet.Link.transmit link tx ~bytes:packet_bytes with
            | Ok () -> ()
            | Error `Retired -> failwith "net_iso: stream client retired")
          ~gap ~warmup stats));
  System.run sys ~until:duration;
  stats

(* Shared-driver structure: one "kernel" domain's single event loop
   both resolves page faults (blocking on ~11 ms disk writes) and
   transmits packets — the execution-environment sharing the paper
   warns about. *)
type kernel_job =
  | Send_packet of unit Sync.Ivar.t
  | Resolve of Fault.t * Stretch_driver.t

let run_shared ~duration =
  let sys = Harness.fresh_system () in
  let sim = System.sim sys in
  let link = Usnet.Link.create sim in
  let kernel =
    match
      System.add_domain sys ~name:"kernel" ~cpu_slice:(Time.ms 2)
        ~guarantee:8 ~optimistic:0 ()
    with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let ktx =
    match
      Usnet.Link.admit link ~name:"kernel-tx" ~period:(Time.ms 10)
        ~slice:(Time.ms 2) ()
    with
    | Ok c -> c
    | Error e -> failwith (Usnet.Link.admit_error_message e)
  in
  let jobs = Sync.Mailbox.create () in
  ignore
    (Domains.spawn_thread kernel.System.dom ~name:"event-loop" (fun () ->
         let rec loop () =
           (match Sync.Mailbox.recv jobs with
           | Send_packet done_ ->
             (match Usnet.Link.transmit link ktx ~bytes:packet_bytes with
             | Ok () -> ()
             | Error `Retired -> failwith "net_iso: kernel tx retired");
             Sync.Ivar.fill done_ ()
           | Resolve (fault, backing) ->
             (match backing.Stretch_driver.full fault with
             | Stretch_driver.Success ->
               ignore (Sync.Ivar.try_fill fault.Fault.resolved Fault.Resolved)
             | Stretch_driver.Retry | Stretch_driver.Failure _ ->
               ignore
                 (Sync.Ivar.try_fill fault.Fault.resolved
                    (Fault.Failed "kernel pager failed"))));
           loop ()
         in
         loop ()));
  (* Heavy pager backed by the kernel domain (its faults become kernel
     jobs, like the external pager, sharing the event loop with tx). *)
  let heavy =
    match System.add_domain sys ~name:"heavy" ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let hs =
    match System.alloc_stretch heavy ~bytes:(2 * 1024 * 1024) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  Pdom.set
    (Domains.pdom kernel.System.dom)
    ~sid:hs.Stretch.sid Hw.Rights.rw_meta;
  let qos = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 50) () in
  let swap =
    match
      Usbs.Sfs.open_swap (System.sfs sys) ~name:"kernel.swap"
        ~bytes:(8 * 1024 * 1024) ~qos ()
    with
    | Ok s -> s
    | Error e -> failwith (Usbs.Sfs.open_error_message e)
  in
  let backing =
    match
      Sd_paged.create ~forgetful:true ~initial_frames:2
        ~backing:(Tier.Backing.of_sfs swap) kernel.System.env
    with
    | Ok (b, _) -> b
    | Error e -> failwith e
  in
  backing.Stretch_driver.bind hs;
  let proxy =
    { Stretch_driver.name = "kernel-proxy";
      bind = (fun _ -> ());
      fast = (fun _ -> Stretch_driver.Retry);
      full =
        (fun fault ->
          Sync.Mailbox.send jobs (Resolve (fault, backing));
          match Sync.Ivar.read fault.Fault.resolved with
          | Fault.Resolved -> Stretch_driver.Success
          | Fault.Failed _ -> Stretch_driver.Failure "kernel failed");
      relinquish = (fun ~want:_ -> 0);
      resident_pages = (fun () -> 0);
      free_frames = (fun () -> 0) }
  in
  Mm_entry.bind heavy.System.mm hs proxy;
  ignore
    (Domains.spawn_thread heavy.System.dom ~name:"churn" (fun () ->
         let n = Stretch.npages hs in
         let rec loop () =
           for i = 0 to n - 1 do
             Domains.access heavy.System.dom (Stretch.page_base hs i) `Write
           done;
           loop ()
         in
         loop ()));
  (* The streamer's packets go through the shared kernel loop. *)
  let stats = Stats.create ~keep_samples:true () in
  ignore
    (Proc.spawn ~name:"stream" sim
       (streamer_loop ~sim
          ~send:(fun () ->
            let done_ = Sync.Ivar.create () in
            Sync.Mailbox.send jobs (Send_packet done_);
            Sync.Ivar.read done_)
          ~gap ~warmup stats));
  System.run sys ~until:duration;
  stats

let run_kernel_crosstalk ?(duration = Time.sec 60) () =
  let nem = run_nemesis ~duration in
  let shared = run_shared ~duration in
  { nemesis_mean_ms = Stats.mean nem;
    nemesis_p95_ms = Stats.percentile nem 95.0;
    shared_mean_ms = Stats.mean shared;
    shared_p95_ms = Stats.percentile shared 95.0;
    packets = (Stats.count nem, Stats.count shared) }

let print_kernel_crosstalk r =
  Report.heading
    "Crosstalk across orthogonal resources: shared driver domain vs Nemesis";
  Report.table
    ~header:[ "structure"; "packets"; "tx latency mean ms"; "p95 ms" ]
    [ [ "Nemesis (own link guarantee)";
        string_of_int (fst r.packets);
        Report.f2 r.nemesis_mean_ms; Report.f2 r.nemesis_p95_ms ];
      [ "shared driver event loop";
        string_of_int (snd r.packets);
        Report.f2 r.shared_mean_ms; Report.f2 r.shared_p95_ms ] ];
  print_newline ();
  print_endline
    "With network transmission and fault resolution sharing one execution";
  print_endline
    "environment, a heavily paging application delays packets behind ~11ms";
  print_endline
    "disk writes — the paper's argument against in-kernel device drivers,";
  print_endline "measured. Vertical structure keeps the resources orthogonal."
