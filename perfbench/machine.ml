(* The three benchmark workloads: how each machine is built, how its
   domains are driven, and one simulated span over it.

   Every domain runs one thread that the benchmark drives itself: it
   draws pages from its own seeded {!Gen} stream and calls
   [Domains.try_access] and [Domains.consume_cpu], as
   [Workload.Paging_app] does. Readers first dirty every page once (so
   the measured loop pages in from the backing store) and then read;
   writers use the forgetful driver of the paper's paging-out figure
   and need no warm-up. Every domain waits at a barrier after its
   warm-up; when the last one arrives the measured window opens, all
   start their measured loops together, and the span runs a fixed
   simulated time more. All measurement is from outside the program: simulated
   clocks read around the calls into it, public counters, and (traced
   runs only) a wrapper on the [Tier.Backing.t] record the paged
   driver writes through. *)

open Engine
open Hw
open Core

type role = Reader | Writer

type app_spec = {
  name : string;
  role : role;
  pattern : Gen.pattern;
  pages : int;  (* stretch size *)
  frames : int;  (* guaranteed frames, no optimistic ones *)
  swap_pages : int;
  cpu_slice : Time.span;  (* per 10 ms CPU period *)
  disk : Usbs.Qos.t;
}

type fleet_spec = {
  nodes : int;
  k : int;
  m : int;
  node_capacity : int;
  cache_pages : int;
  link_period : Time.span;
  link_slice : Time.span;
  link_laxity : Time.span;
}

type spec = {
  wname : string;
  memory_mb : int;
  apps : app_spec array;
  fleet : fleet_spec option;
  compute : Time.span;  (* simulated compute after each access *)
  window : Time.span;  (* measured window, from the barrier *)
  warmup_limit : Time.span;  (* the barrier must come before this *)
}

let app ~name ~role ~pattern ~pages ~frames ~swap_pages ~cpu_slice ~disk =
  { name; role; pattern; pages; frames; swap_pages; cpu_slice; disk }

(* The paper's Figs. 7-8 on the disk path: a trio of paging-in readers
   and a trio of paging-out writers, each trio holding disk guarantees
   1:2:4 (15/30/60 ms per 250 ms; both trios book 0.84 of the disk),
   10 ms laxity, no slack. The 30 s window is the shortest that holds
   1,000 write faults: short spans repeat often in a run, which steadies
   the host-time figures. *)
let disk_paper =
  let trio role tag =
    List.map
      (fun (share, slice_ms) ->
        app
          ~name:(Printf.sprintf "%s%d" tag share)
          ~role ~pattern:Gen.Seq ~pages:512 ~frames:2 ~swap_pages:2048
          ~cpu_slice:(Time.of_ms_float 1.5)
          ~disk:
            (Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms slice_ms)
               ~laxity:(Time.ms 10) ()))
      [ (1, 15); (2, 30); (4, 60) ]
  in
  { wname = "disk-paper";
    memory_mb = 64;
    apps = Array.of_list (trio Reader "in" @ trio Writer "out");
    fleet = None;
    compute = Time.us 20;
    window = Time.sec 30;
    warmup_limit = Time.sec 240 }

(* 128 domains sized like the scale experiment: 16-page stretches,
   6-frame guarantees, memory with ~25% left unguaranteed, Σ s/p about
   0.77 of the CPU and 0.8 of the disk. Patterns rotate seq/rand/hot;
   every fourth domain is a forgetful writer. *)
let many_domains =
  let n = 128 in
  let usd_period_ms = n * 32 in
  (* a writer's slice is twice a reader's: 96 s + 32 (2 s) = 0.8 p *)
  let disk weight =
    Usbs.Qos.make ~period:(Time.ms usd_period_ms)
      ~slice:(Time.us (usd_period_ms * 800 * weight / (n + (n / 4))))
      ()
  in
  let frames_wanted = n * 6 * 5 / 4 in
  let frames_per_mb = 1024 * 1024 / Addr.page_size in
  { wname = "many-domains";
    memory_mb = (frames_wanted + frames_per_mb - 1) / frames_per_mb;
    apps =
      Array.init n (fun i ->
          app
            ~name:(Printf.sprintf "d%03d" i)
            ~role:(if i mod 4 = 3 then Writer else Reader)
            ~pattern:[| Gen.Seq; Gen.Rand; Gen.Hot |].(i mod 3)
            ~pages:16 ~frames:6 ~swap_pages:32
            ~cpu_slice:(Time.us (7_700 / n))
            ~disk:(disk (if i mod 4 = 3 then 2 else 1)));
    fleet = None;
    compute = Time.us 20;
    window = Time.sec 30;
    warmup_limit = Time.sec 240 }

(* Three tiered readers and one write-back writer over a six-node
   (k = 4, m = 2) erasure-coded fleet on gigabit jumbo-frame links, a
   24-page RAM cache each, repair off; one node is wiped when the
   window opens, so the window is served degraded. A 1 s window holds
   over 3,000 faulting reads and writes each. *)
let fleet_degraded =
  let disk = Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 35) () in
  let mk name role pattern =
    app ~name ~role ~pattern ~pages:128 ~frames:8 ~swap_pages:512
      ~cpu_slice:(Time.of_ms_float 1.5) ~disk
  in
  { wname = "fleet-degraded";
    memory_mb = 2;
    apps =
      [| mk "fleet_seq" Reader Gen.Seq; mk "fleet_rand" Reader Gen.Rand;
         mk "fleet_hot" Reader Gen.Hot; mk "fleet_wb" Writer Gen.Seq |];
    fleet =
      Some
        { nodes = 6; k = 4; m = 2; node_capacity = 1024; cache_pages = 24;
          link_period = Time.ms 20; link_slice = Time.ms 4;
          link_laxity = Time.of_ms_float 2.0 };
    compute = Time.us 20;
    window = Time.sec 1;
    warmup_limit = Time.sec 120 }

let all = [ disk_paper; many_domains; fleet_degraded ]

(* ---- one span ------------------------------------------------------- *)

type bufs = {
  read_faults : Probe.samples;  (* simulated ns of each faulting read *)
  write_faults : Probe.samples;
  steps : Probe.hist;  (* host ns of each Sim.step (traced) *)
  spans : Probe.spans;  (* traced *)
  least : Probe.minima;
      (* least host ns of each [chunk_events] run of Sim.step, over the
         untraced spans of a run *)
}

let chunk_events = 256

(* Sized for every workload's window with room to spare; an overflow
   fails an output check rather than going unnoticed. *)
let bufs () =
  { read_faults = Probe.samples (1 lsl 17);
    write_faults = Probe.samples (1 lsl 17);
    steps = Probe.hist ();
    spans = Probe.spans (1 lsl 19);
    least = Probe.minima (1 lsl 15) }

type app = {
  a : app_spec;
  idx : int;
  gen : Gen.t;
  d : System.domain;
  stretch : Stretch.t;
  mutable handle : Sd_paged.handle option;
  mutable store : Tier.Fleet.store option;
  mutable clients : Usnet.Link.client array;
  mutable attempted : int;  (* accesses issued in the window *)
  mutable completed : int;  (* ... that returned *)
  mutable failed : int;  (* ... that returned an error *)
  mutable total : int;  (* accesses completed over the whole span *)
  mutable flight : int;  (* 0 idle, 1 in flight, 2 in flight and measured *)
}

(* Public counters read at the window's two ends. *)
type snap = {
  time : Time.t;
  info : Sd_paged.info array;
  faults : int;
  fast : int;
  slow : int;
  cpu_used : Time.span;
  revocations : int;
  disk_hits : int;
  disk_mech : int;
  disk_seeks : int;
  fleet_stats : Tier.Fleet.stats option;
  stores : Tier.Fleet.store_stats array;
  link_used : Time.span;
  link_lax : Time.span;
  link_packets : int;
}

type t = {
  spec : spec;
  traced : bool;
  b : bufs;
  sys : System.t;
  sim : Sim.t;
  fleet : Tier.Fleet.t option;
  remote : Tier.Remote_node.t array;
  mutable apps : app array;
  current : int array;  (* span id of each app's in-flight access *)
  go : unit Sync.Ivar.t;
  barrier : unit Sync.Ivar.t;
  mutable bound : int;
  mutable bind_errors : string list;
  mutable arrived : int;
  mutable window_open : bool;
  mutable go_at : Time.t;
  mutable events_at_window : int;
  mutable guard : Sim.handle option;
  mutable stopped : bool;
  mutable timed_out : bool;
  mutable drained : bool;
  mutable events : int;
  mutable pending_peak : int;
  mutable wall_ns : int;
  mutable chunks : int;  (* chunks of the span recorded in [b.least] *)
  mutable alloc_words : float;
  mutable top_heap_words : int;
  mutable start_snap : snap option;
  mutable end_snap : snap option;
}

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let snapshot r =
  let clients = Array.concat (Array.to_list (Array.map (fun a -> a.clients) r.apps)) in
  let disk = System.disk r.sys in
  { time = Sim.now r.sim;
    info = Array.map (fun a -> Sd_paged.info (Option.get a.handle)) r.apps;
    faults = sum (fun a -> Domains.faults_taken a.d.System.dom) r.apps;
    fast = sum (fun a -> Mm_entry.faults_fast a.d.System.mm) r.apps;
    slow = sum (fun a -> Mm_entry.faults_slow a.d.System.mm) r.apps;
    cpu_used = sum (fun a -> Domains.cpu_used a.d.System.dom) r.apps;
    revocations = Frames.revocations (System.frames r.sys);
    disk_hits = Disk.Disk_model.cache_hits disk;
    disk_mech = Disk.Disk_model.mechanical_ops disk;
    disk_seeks = Disk.Disk_model.seeks disk;
    fleet_stats = Option.map Tier.Fleet.stats r.fleet;
    stores =
      Array.of_list
        (List.filter_map
           (fun a -> Option.map Tier.Fleet.store_stats a.store)
           (Array.to_list r.apps));
    link_used = sum Usnet.Link.used_time clients;
    link_lax = sum Usnet.Link.lax_time clients;
    link_packets = sum Usnet.Link.packets_sent clients }

let open_window r =
  r.window_open <- true;
  r.events_at_window <- r.events;
  Option.iter Sim.cancel r.guard;
  r.start_snap <- Some (snapshot r);
  (* the fleet loses one member's contents: every stripe with a shard
     there reads degraded from now on (repair is off) *)
  if Array.length r.remote > 1 then Tier.Remote_node.wipe r.remote.(1);
  ignore (Sim.after r.sim r.spec.window (fun () -> r.stopped <- true))

(* One page access and its compute. Returns [false] once the domain is
   dead. A fault the domain cannot resolve kills it, as the self-paging
   contract (and [Domains.spawn_thread]) has it. *)
let touch r app page ~write =
  let dom = app.d.System.dom in
  let measured = r.window_open in
  let traced = measured && r.traced in
  let t0 = Sim.now r.sim in
  let f0 = Domains.faults_taken dom in
  let id =
    if traced then
      Probe.open_span r.b.spans ~kind:Probe.k_access ~owner:app.idx
        ~parent:(-1) ~start:t0
    else -1
  in
  r.current.(app.idx) <- id;
  if measured then app.attempted <- app.attempted + 1;
  app.flight <- (if measured then 2 else 1);
  match
    Domains.try_access dom
      (Stretch.page_base app.stretch page)
      (if write then `Write else `Read)
  with
  | Ok () ->
    let t1 = Sim.now r.sim in
    r.current.(app.idx) <- -1;
    if measured && Domains.faults_taken dom > f0 then begin
      Probe.add (if write then r.b.write_faults else r.b.read_faults) (t1 - t0);
      Probe.set_kind r.b.spans id Probe.k_fault
    end;
    let c =
      if traced then
        Probe.open_span r.b.spans ~kind:Probe.k_cpu ~owner:app.idx ~parent:id
          ~start:t1
      else -1
    in
    Domains.consume_cpu dom r.spec.compute;
    let t2 = Sim.now r.sim in
    Probe.close_span r.b.spans c ~stop:t2;
    Probe.close_span r.b.spans id ~stop:t2;
    app.flight <- 0;
    app.total <- app.total + 1;
    if measured then app.completed <- app.completed + 1;
    true
  | Error (fault, msg) ->
    r.current.(app.idx) <- -1;
    app.flight <- 0;
    if measured then app.failed <- app.failed + 1;
    raise (Fault.Unresolved (fault, msg))
  | exception Failure _ ->
    (* the domain died under us *)
    app.flight <- 0;
    if measured then app.failed <- app.failed + 1;
    false

let run_app r app =
  let rec populate i =
    i >= app.a.pages
    || (touch r app (Gen.populate_page app.gen i) ~write:true
       && populate (i + 1))
  in
  let alive = match app.a.role with Reader -> populate 0 | Writer -> true in
  if alive then begin
    (* every domain starts its measured loop at the same instant *)
    r.arrived <- r.arrived + 1;
    if r.arrived = Array.length r.apps then begin
      open_window r;
      Sync.Ivar.fill r.barrier ()
    end
    else Sync.Ivar.read r.barrier;
    let write = app.a.role = Writer in
    while touch r app (Gen.next app.gen) ~write do () done
  end

(* Simulated time around each call through the driver's backing store
   (traced runs, measured window only); the parent is the domain's
   in-flight access, if any. *)
let wrap r app (b : Tier.Backing.t) : Tier.Backing.t =
  let timed kind f =
    if not r.window_open then f ()
    else begin
      let id =
        Probe.open_span r.b.spans ~kind ~owner:app.idx
          ~parent:r.current.(app.idx) ~start:(Sim.now r.sim)
      in
      let res = f () in
      Probe.close_span r.b.spans id ~stop:(Sim.now r.sim);
      res
    end
  in
  { b with
    read_pages =
      (fun ~page_index ~npages ->
        timed Probe.k_read (fun () -> b.read_pages ~page_index ~npages));
    write_page =
      (fun ~page_index ->
        timed Probe.k_write (fun () -> b.write_page ~page_index));
    write_pages =
      (fun ~page_index ~npages ->
        timed Probe.k_write (fun () -> b.write_pages ~page_index ~npages));
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        timed Probe.k_write (fun () ->
            b.write_pages_commit ~page_index ~npages ~pages ~retire)) }

exception Setup_failed of string

let ok_or what = function
  | Ok v -> v
  | Error msg -> raise (Setup_failed (what ^ ": " ^ msg))

let build_fleet (f : fleet_spec) ~seed sim =
  let nodes =
    Array.init f.nodes (fun _ ->
        Tier.Remote_node.create ~capacity_pages:f.node_capacity ())
  in
  let members =
    List.init f.nodes (fun i ->
        let name = Printf.sprintf "n%d" i in
        ( name,
          nodes.(i),
          Usnet.Link.create ~name ~params:Usnet.Net_params.gigabit sim ))
  in
  ( Tier.Fleet.create ~seed
      ~redundancy:(Tier.Fleet.Erasure { k = f.k; m = f.m })
      ~repair:false ~nodes:members sim,
    nodes )

(* Build the machine and bind every domain, stopping just before the
   first access. Obs is enabled and reset here, as every experiment
   runs it: the QoS auditor reads it. *)
(* The machine is the same for every --seed: the system's own random
   streams and the fleet's placement hash use a fixed seed, so --seed
   changes the inputs (the page streams) and nothing else. *)
let machine_seed = 42

let build spec ~seed ~traced b =
  Obs.set_enabled true;
  Obs.reset ();
  Inject.disarm ();
  Probe.clear b.read_faults;
  Probe.clear b.write_faults;
  Probe.spans_clear b.spans;
  if traced then Probe.hist_clear b.steps;
  let config =
    { System.default_config with
      seed = machine_seed;
      main_memory_mb = spec.memory_mb }
  in
  let sys = System.create ~config () in
  let sim = System.sim sys in
  let fleet, remote =
    match spec.fleet with
    | None -> (None, [||])
    | Some f ->
      let fl, remote = build_fleet f ~seed:machine_seed sim in
      (Some fl, remote)
  in
  let r =
    { spec; traced; b; sys; sim; fleet; remote; apps = [||];
      current = Array.make (Array.length spec.apps) (-1);
      go = Sync.Ivar.create (); barrier = Sync.Ivar.create ();
      bound = 0; bind_errors = []; arrived = 0; window_open = false;
      go_at = 0; events_at_window = 0; guard = None; stopped = false;
      timed_out = false; drained = false; events = 0; pending_peak = 0;
      wall_ns = 0; chunks = 0; alloc_words = 0.0; top_heap_words = 0; start_snap = None;
      end_snap = None }
  in
  r.apps <-
    Array.mapi
      (fun idx (a : app_spec) ->
        let d =
          ok_or a.name
            (Result.map_error System.error_message
               (System.add_domain sys ~name:a.name ~cpu_period:(Time.ms 10)
                  ~cpu_slice:a.cpu_slice ~guarantee:a.frames ~optimistic:0 ()))
        in
        let stretch =
          ok_or a.name
            (System.alloc_stretch d ~bytes:(a.pages * Addr.page_size) ())
        in
        { a; idx; gen = Gen.create ~seed ~stream:idx a.pattern ~npages:a.pages;
          d; stretch; handle = None; store = None; clients = [||];
          attempted = 0; completed = 0; failed = 0; total = 0; flight = 0 })
      spec.apps;
  Array.iter
    (fun app ->
      let a = app.a in
      let backing =
        match (fleet, spec.fleet) with
        | Some fl, Some f ->
          app.clients <-
            ok_or a.name
              (Result.map_error Usnet.Link.admit_error_message
                 (Tier.Fleet.admit_clients fl ~name:(a.name ^ ".tier")
                    ~period:f.link_period ~slice:f.link_slice ~extra:true
                    ~laxity:f.link_laxity ()));
          let mode =
            match a.role with
            | Reader -> Tier.Store.Write_through
            | Writer -> Tier.Store.Write_back
          in
          Some
            (fun swap ->
              let st =
                Tier.Fleet.attach ~mode ~cache_pages:f.cache_pages fl
                  ~clients:app.clients ~swap ()
              in
              app.store <- Some st;
              let bk = Tier.Fleet.backing st in
              if traced then wrap r app bk else bk)
        | _ ->
          if traced then
            Some (fun swap -> wrap r app (Tier.Backing.of_sfs swap))
          else None
      in
      ignore
        (Domains.spawn_thread app.d.System.dom ~name:"main" (fun () ->
             match
               System.bind_paged app.d ~forgetful:(a.role = Writer)
                 ~initial_frames:a.frames ?backing
                 ~swap_bytes:(a.swap_pages * Addr.page_size) ~qos:a.disk
                 app.stretch ()
             with
             | Error e ->
               r.bind_errors <- System.error_message e :: r.bind_errors;
               r.bound <- r.bound + 1
             | Ok (_, h) ->
               app.handle <- Some h;
               r.bound <- r.bound + 1;
               Sync.Ivar.read r.go;
               run_app r app)))
    r.apps;
  let fuel = ref 10_000_000 in
  while r.bound < Array.length r.apps && !fuel > 0 do
    if Sim.step sim then decr fuel else fuel := 0
  done;
  (match r.bind_errors with
  | e :: _ -> raise (Setup_failed e)
  | [] ->
    if r.bound < Array.length r.apps then
      raise (Setup_failed "domains did not finish binding"));
  r

(* Words allocated so far. The forced minor collection brings the
   counters up to date, so the difference of two readings is exact. *)
let allocated () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run the span: from the first access to the sentinel [window] after
   the barrier. Host time is read around the whole span and, untraced,
   after every [chunk_events] steps (each chunk's time goes into the
   run's per-chunk minima), or, traced, around every [Sim.step]. *)
let simulate r =
  r.guard <-
    Some
      (Sim.after r.sim r.spec.warmup_limit (fun () ->
           r.timed_out <- true;
           r.stopped <- true));
  let a0 = allocated () in
  let t0 = Probe.now_ns () in
  let last = ref t0 and chunk = ref 0 in
  r.go_at <- Sim.now r.sim;
  Sync.Ivar.fill r.go ();
  if r.traced then begin
    let steps = r.b.steps in
    while not r.stopped do
      let s0 = Probe.now_ns () in
      let more = Sim.step r.sim in
      let s1 = Probe.now_ns () in
      if more then begin
        Probe.hist_add steps (s1 - s0);
        r.events <- r.events + 1;
        let p = Sim.pending r.sim in
        if p > r.pending_peak then r.pending_peak <- p
      end
      else begin
        r.drained <- true;
        r.stopped <- true
      end
    done
  end
  else begin
    let least = r.b.least in
    while not r.stopped do
      if Sim.step r.sim then begin
        r.events <- r.events + 1;
        if r.events land (chunk_events - 1) = 0 then begin
          let t = Probe.now_ns () in
          Probe.minima_add least !chunk (t - !last);
          last := t;
          incr chunk
        end
      end
      else begin
        r.drained <- true;
        r.stopped <- true
      end
    done
  end;
  let t1 = Probe.now_ns () in
  (* the last, partial chunk ends with the span *)
  if not r.traced then begin
    Probe.minima_add r.b.least !chunk (t1 - !last);
    r.chunks <- !chunk + 1
  end;
  r.alloc_words <- allocated () -. a0;
  r.wall_ns <- t1 - t0;
  r.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  r.end_snap <- Some (snapshot r)
