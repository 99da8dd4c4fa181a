open Engine
open Hw
open Core

type mode = Paging_in | Paging_out

type gen = {
  g_name : string;
  g_make : unit -> rng:Rng.t -> npages:int -> int;
}

type pattern = Sequential | Random | Hotspot | Ext of gen

let pattern_name = function
  | Sequential -> "seq"
  | Random -> "rand"
  | Hotspot -> "hot"
  | Ext g -> g.g_name

type t = {
  d : System.domain;
  stretch : Stretch.t;
  handle : Sd_paged.handle;
  pattern : pattern;
  (* Instantiated once per app (isolation rule: pattern
     extensions never share state between apps). *)
  pattern_gen : (rng:Rng.t -> npages:int -> int) option;
  rng : Rng.t;
  bytes : int ref;
  accesses : int ref;
  watcher : Sampler.t;
  (* Instant at which the measured loop began (init/populate done). *)
  loop_start : Time.t option ref;
  start_info : Sd_paged.info option ref;
  start_accesses : int ref;
}

let domain t = t.d
let bytes_processed t = !(t.bytes)
let sampler t = t.watcher
let in_measured_loop t = !(t.loop_start) <> None

let sustained_mbit t =
  match !(t.loop_start) with
  | None -> nan
  | Some start -> Sampler.sustained t.watcher ~after:(Time.add start (Time.sec 5)) ()

let paging_info t = Sd_paged.info t.handle
let policy_name t = Sd_paged.policy_name t.handle
let swap_extent t = Sd_paged.swap_extent t.handle

let measured_accesses t =
  match !(t.start_info) with
  | None -> 0
  | Some _ -> !(t.accesses) - !(t.start_accesses)

let measured_info t =
  match !(t.start_info) with
  | None -> paging_info t
  | Some s -> Sd_paged.info_since t.handle s

let stop t = Domains.kill t.d.System.dom

(* The trivial computation charged per page touched. *)
let compute_per_page = Time.us 20

let touch t page ~access =
  let dom = t.d.System.dom in
  Domains.access dom (Stretch.page_base t.stretch page) access;
  Domains.consume_cpu dom compute_per_page;
  t.bytes := !(t.bytes) + Addr.page_size;
  t.accesses := !(t.accesses) + 1

(* Touch every page of the stretch once, in order, charging the
   trivial per-page computation — used for initialisation and swap
   population regardless of the measured pattern. *)
let sweep_seq t ~access =
  let npages = Stretch.npages t.stretch in
  for i = 0 to npages - 1 do
    touch t i ~access
  done

(* One round of [npages] accesses following the app's pattern — the
   same volume of work per round for every pattern, so sustained
   throughputs are comparable. *)
let sweep_pattern t ~access =
  let npages = Stretch.npages t.stretch in
  match t.pattern with
  | Sequential -> sweep_seq t ~access
  | Random ->
    for _ = 1 to npages do
      touch t (Rng.int t.rng npages) ~access
    done
  | Hotspot ->
    (* 90 % of accesses land in the first eighth of the stretch. *)
    let hot = max 1 (npages / 8) in
    for _ = 1 to npages do
      let p =
        if Rng.int t.rng 10 < 9 then Rng.int t.rng hot
        else Rng.int t.rng npages
      in
      touch t p ~access
    done
  | Ext g ->
    let next =
      match t.pattern_gen with Some f -> f | None -> g.g_make ()
    in
    for _ = 1 to npages do
      let p = next ~rng:t.rng ~npages in
      touch t (((p mod npages) + npages) mod npages) ~access
    done

let begin_measured t =
  t.loop_start := Some (Sim.now (Proc.sim (Proc.self ())));
  t.start_info := Some (paging_info t);
  t.start_accesses := !(t.accesses)

let run_app t ~mode =
  (* Initialisation: sequential read, demand-zeroing every page. The
     byte counter keeps running; measurement cuts off at [loop_start]. *)
  sweep_seq t ~access:`Read;
  match mode with
  | Paging_in ->
    (* Populate the swap file by dirtying every page (sequentially, so
       pages get consecutive bloks and read-ahead has runs to find)... *)
    sweep_seq t ~access:`Write;
    begin_measured t;
    (* ...then page it back in, over and over, following the pattern. *)
    let rec loop () =
      sweep_pattern t ~access:`Read;
      loop ()
    in
    loop ()
  | Paging_out ->
    begin_measured t;
    let rec loop () =
      sweep_pattern t ~access:`Write;
      loop ()
    in
    loop ()

let start sys ~name ~mode ~qos ?(vm_bytes = 4 * 1024 * 1024)
    ?(phys_frames = 2) ?(optimistic = 0) ?(swap_bytes = 16 * 1024 * 1024)
    ?(cpu_slice = Time.of_ms_float 1.5) ?policy ?spare_pages ?backing
    ?(pattern = Sequential) () =
  match
    System.add_domain sys ~name ~cpu_period:(Time.ms 10) ~cpu_slice
      ~guarantee:phys_frames ~optimistic ()
  with
  | Error e -> Error (System.error_message e)
  | Ok d ->
    (match System.alloc_stretch d ~bytes:vm_bytes () with
    | Error _ as e -> e
    | Ok stretch ->
      let forgetful = mode = Paging_out in
      let started = Sync.Ivar.create () in
      (* Driver creation allocates guaranteed frames and negotiates
         disk QoS, so it runs in the application's own main thread, as
         a real self-paging application's would. *)
      ignore
        (Domains.spawn_thread d.System.dom ~name:"main" (fun () ->
             match
               System.bind_paged d ~forgetful ~initial_frames:phys_frames
                 ?policy ?spare_pages ?backing ~swap_bytes ~qos
                 stretch ()
             with
             | Error e ->
               Sync.Ivar.fill started (Error (System.error_message e))
             | Ok (_driver, handle) ->
               let bytes = ref 0 in
               let watcher =
                 Sampler.start (System.sim sys) ~name:(name ^ ".watch")
                   ~period:(Time.sec 5) ~bytes:(fun () -> !bytes) ()
               in
               let t =
                 { d; stretch; handle; pattern;
                   pattern_gen =
                     (match pattern with
                     | Ext g -> Some (g.g_make ())
                     | Sequential | Random | Hotspot -> None);
                   rng = Rng.create ~seed:(Hashtbl.hash name land 0xffffff);
                   bytes; accesses = ref 0; watcher;
                   loop_start = ref None; start_info = ref None;
                   start_accesses = ref 0 }
               in
               Sync.Ivar.fill started (Ok t);
               run_app t ~mode));
      (* Drive the simulation just far enough for setup to finish (the
         caller typically invokes [start] from outside the sim). *)
      let sim = System.sim sys in
      let fuel = ref 1_000_000 in
      while Sync.Ivar.peek started = None && !fuel > 0 do
        if Sim.step sim then decr fuel else fuel := 0
      done;
      (match Sync.Ivar.peek started with
      | Some r -> r
      | None -> Error "application setup did not complete"))
