open Engine
open Hw
open Core

type job = { fault : Fault.t; driver : Stretch_driver.t }

type t = {
  sys : System.t;
  pager : System.domain;
  queue : job Sync.Mailbox.t;
  swap_qos : Usbs.Qos.t;
}

let pager_domain t = t.pager

(* The pager's service loop: strict FCFS over all clients' faults. *)
let pager_loop t () =
  let rec loop () =
    let job = Sync.Mailbox.recv t.queue in
    let dom = t.pager.System.dom in
    Domains.consume_cpu dom (Domains.cost dom).Cost.ults_schedule;
    Domains.consume_cpu dom (Domains.cost dom).Cost.driver_invoke;
    (match job.driver.Stretch_driver.full job.fault with
    | Stretch_driver.Success ->
      ignore (Sync.Ivar.try_fill job.fault.Fault.resolved Fault.Resolved)
    | Stretch_driver.Retry ->
      ignore
        (Sync.Ivar.try_fill job.fault.Fault.resolved
           (Fault.Failed "pager retried"))
    | Stretch_driver.Failure m ->
      ignore (Sync.Ivar.try_fill job.fault.Fault.resolved (Fault.Failed m)));
    loop ()
  in
  loop ()

let create sys ?(frames = 64) ?qos ?(cpu_slice = Time.ms 2) () =
  let qos =
    match qos with
    | Some q -> q
    | None -> Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 125) ()
  in
  match
    System.add_domain sys ~name:"external-pager" ~cpu_period:(Time.ms 10)
      ~cpu_slice ~guarantee:frames ~optimistic:0 ()
  with
  | Error e -> Error (System.error_message e)
  | Ok pager ->
    let t =
      { sys; pager; queue = Sync.Mailbox.create (); swap_qos = qos }
    in
    ignore
      (Domains.spawn_thread pager.System.dom ~name:"pager-loop"
         (pager_loop t));
    Ok t

(* The frames the pager takes for each client's paged driver. *)
let cache_frames_per_client = 2

let attach t client stretch ?(swap_bytes = 16 * 1024 * 1024)
    ?(forgetful = false) () =
  (* The pager needs meta rights on the client's stretch to manage its
     mappings — the microkernel grants its pager exactly that. *)
  Pdom.set
    (Domains.pdom t.pager.System.dom)
    ~sid:stretch.Stretch.sid Rights.rw_meta;
  match
    Usbs.Sfs.open_swap (System.sfs t.sys)
      ~name:
        (Printf.sprintf "pager.%s.swap" (Domains.name client.System.dom))
      ~bytes:swap_bytes ~qos:t.swap_qos ()
  with
  | Error e -> Error (Usbs.Sfs.open_error_message e)
  | Ok swap ->
    (* The backing driver runs entirely on pager resources. *)
    (match
       Sd_paged.create ~forgetful ~initial_frames:cache_frames_per_client
         ~backing:(Tier.Backing.of_sfs swap) t.pager.System.env
     with
    | Error _ as e -> e
    | Ok (backing, _info) ->
      backing.Stretch_driver.bind stretch;
      (* The client-side proxy: every fault is shipped to the pager. *)
      let proxy =
        { Stretch_driver.name = "external-pager-proxy";
          bind = (fun _ -> ());
          fast = (fun _ -> Stretch_driver.Retry);
          full =
            (fun fault ->
              (* IDC to the pager, then wait for it to resolve the
                 fault; the client's own resources are NOT used. *)
              client.System.env.Stretch_driver.consume_cpu
                client.System.env.Stretch_driver.cost.Cost.idc_call;
              Sync.Mailbox.send t.queue { fault; driver = backing };
              (* The pager fills the fault's ivar itself. *)
              match Sync.Ivar.read fault.Fault.resolved with
              | Fault.Resolved -> Stretch_driver.Success
              | Fault.Failed _ -> Stretch_driver.Failure "pager failed");
          relinquish = (fun ~want:_ -> 0);
          resident_pages = backing.Stretch_driver.resident_pages;
          free_frames = backing.Stretch_driver.free_frames }
      in
      Mm_entry.bind client.System.mm stretch proxy;
      Ok proxy)
