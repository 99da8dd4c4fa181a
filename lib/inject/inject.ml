open Engine

type disk_op = Read | Write

type blok_fault = {
  bf_first : int;
  bf_len : int;
  bf_op : disk_op option;
  bf_transient : int option;
}

type region_fault = {
  rf_first : int;
  rf_len : int;
  rf_read_error : float;
  rf_write_error : float;
  rf_spike : float;
  rf_spike_span : Time.span;
}

type stall = { st_rate : float; st_span : Time.span }

type chan_fault = {
  cf_drop : float;
  cf_delay : float;
  cf_delay_span : Time.span;
}

type link_fault = {
  lf_drop : float;
  lf_delay : float;
  lf_delay_span : Time.span;
}

type pressure = { pr_period : Time.span; pr_hold : Time.span }

type zpool_pressure = {
  zp_period : Time.span;
  zp_hold : Time.span;
  zp_shrink : int;
}

type crash_point = {
  cp_after : Time.t;
  cp_site : string option;
  cp_first : int;
  cp_len : int;
}

type node_fault = {
  nf_node : string;
  nf_wipe_at : Time.t option;
  nf_partitions : (Time.t * Time.t) list;
  nf_join_at : Time.t option;
  nf_corrupt : float;
}

let node_fault ?wipe_at ?(partitions = []) ?join_at ?(corrupt = 0.0) node =
  { nf_node = node;
    nf_wipe_at = wipe_at;
    nf_partitions = partitions;
    nf_join_at = join_at;
    nf_corrupt = corrupt }

type plan = {
  seed : int;
  blok_faults : blok_fault list;
  regions : region_fault list;
  stalls : (string * stall) list;
  chans : (string * chan_fault) list;
  links : (string * link_fault) list;
  pressure : pressure option;
  zpool_pressure : zpool_pressure option;
  crashes : crash_point list;
  node_faults : node_fault list;
}

let default_plan =
  {
    seed = 0;
    blok_faults = [];
    regions = [];
    stalls = [];
    chans = [];
    links = [];
    pressure = None;
    zpool_pressure = None;
    crashes = [];
    node_faults = [];
  }

(* --- chaos-site registry ---------------------------------------------

   Fault sites resolve by registered key: each spec string names a
   site kind and appends one fault to the plan under construction, so
   a whole plan is a [seed] plus a list of specs. A new fault site is
   a registration here, not an edit to this file. *)

let site_axis : (plan -> plan) Registry.axis =
  Registry.axis ~name:"chaos-site"
    ~doc:
      "fault sites an Inject plan can name; each spec appends one \
       fault (Inject.plan_of_specs)"

let ( let* ) = Result.bind

let p_int a key =
  match Registry.Spec.param a key with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "bad integer %s=%S" key v))

let p_float a key =
  match Registry.Spec.param a key with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "bad number %s=%S" key v))

(* A duration/instant parameter, in (possibly fractional) ms. *)
let p_span a key =
  let* v = p_float a key in
  Ok (Option.map Time.of_ms_float v)

let req key = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s=" key)

let ri a key = Result.bind (p_int a key) (req key)
let rf a key = Result.bind (p_float a key) (req key)
let rs a key = req key (Registry.Spec.param a key)
let rspan a key = Result.bind (p_span a key) (req key)

(* Sites take only [k=v] parameters, and only the declared ones — a
   typoed key must not silently weaken a chaos plan. *)
let check_keys a allowed =
  match a.Registry.Spec.args with
  | arg :: _ -> Error (Printf.sprintf "unexpected argument %S" arg)
  | [] -> (
      match
        List.find_opt
          (fun (k, _) -> not (List.mem k allowed))
          a.Registry.Spec.params
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown parameter %S" k)
      | None -> Ok ())

let ip name doc = { Registry.p_name = name; p_doc = doc; p_kind = Registry.Int 0 }

let fp name doc =
  { Registry.p_name = name; p_doc = doc; p_kind = Registry.Float 0. }

let sp name doc =
  { Registry.p_name = name; p_doc = doc; p_kind = Registry.String None }

let () =
  let reg name doc params parse =
    Registry.register_exn site_axis
      (Registry.manifest ~name ~doc ~params ())
      (fun a ->
        let* () =
          check_keys a (List.map (fun p -> p.Registry.p_name) params)
        in
        parse a)
  in
  reg "bad-blok" "a bad blok range: transactions touching it fail"
    [ ip "first" "first LBA of the bad range";
      ip "len" "length of the range, in bloks";
      sp "op" "restrict to 'read' or 'write' transactions (default both)";
      ip "transient" "heal after N failures (persistent when absent)" ]
    (fun a ->
      let* bf_first = ri a "first" in
      let* bf_len = ri a "len" in
      let* bf_op =
        match Registry.Spec.param a "op" with
        | None -> Ok None
        | Some "read" -> Ok (Some Read)
        | Some "write" -> Ok (Some Write)
        | Some v -> Error (Printf.sprintf "bad op=%S (read or write)" v)
      in
      let* bf_transient = p_int a "transient" in
      Ok
        (fun p ->
          { p with
            blok_faults =
              p.blok_faults @ [ { bf_first; bf_len; bf_op; bf_transient } ] }));
  reg "region"
    "a probabilistic disk region: per-transaction error and latency-spike dice"
    [ ip "first" "first LBA of the region";
      ip "len" "length of the region, in bloks";
      fp "read" "per-read media-error probability (default 0)";
      fp "write" "per-write media-error probability (default 0)";
      fp "spike" "per-transaction latency-spike probability (default 0)";
      fp "spike-ms" "spike duration, ms (default 0)" ]
    (fun a ->
      let* rf_first = ri a "first" in
      let* rf_len = ri a "len" in
      let* read = p_float a "read" in
      let* write = p_float a "write" in
      let* spike = p_float a "spike" in
      let* span = p_span a "spike-ms" in
      let r =
        { rf_first; rf_len;
          rf_read_error = Option.value read ~default:0.;
          rf_write_error = Option.value write ~default:0.;
          rf_spike = Option.value spike ~default:0.;
          rf_spike_span = Option.value span ~default:0 }
      in
      Ok (fun p -> { p with regions = p.regions @ [ r ] }));
  reg "stall" "a named code site that randomly sleeps instead of proceeding"
    [ sp "site" "the Inject.stall site name, e.g. victim.swap";
      fp "rate" "per-consultation stall probability";
      fp "ms" "stall duration, ms" ]
    (fun a ->
      let* site = rs a "site" in
      let* st_rate = rf a "rate" in
      let* st_span = rspan a "ms" in
      Ok
        (fun p -> { p with stalls = p.stalls @ [ (site, { st_rate; st_span }) ] }));
  let chan_like name doc set =
    reg name doc
      [ sp "name" "the channel/link name, e.g. victim.fault";
        fp "drop" "per-message drop probability (default 0)";
        fp "delay" "per-message delay probability (default 0)";
        fp "delay-ms" "delay duration, ms (default 0)" ]
      (fun a ->
        let* nm = rs a "name" in
        let* drop = p_float a "drop" in
        let* delay = p_float a "delay" in
        let* span = p_span a "delay-ms" in
        Ok
          (set nm
             (Option.value drop ~default:0.)
             (Option.value delay ~default:0.)
             (Option.value span ~default:0)))
  in
  chan_like "chan" "an event channel that drops or delays messages"
    (fun nm cf_drop cf_delay cf_delay_span p ->
      { p with chans = p.chans @ [ (nm, { cf_drop; cf_delay; cf_delay_span }) ] });
  chan_like "link" "a network link that drops or delays packets"
    (fun nm lf_drop lf_delay lf_delay_span p ->
      { p with links = p.links @ [ (nm, { lf_drop; lf_delay; lf_delay_span }) ] });
  reg "pressure" "periodic system frame-pressure bursts"
    [ fp "period-ms" "burst period, ms"; fp "hold-ms" "burst duration, ms" ]
    (fun a ->
      let* pr_period = rspan a "period-ms" in
      let* pr_hold = rspan a "hold-ms" in
      Ok (fun p -> { p with pressure = Some { pr_period; pr_hold } }));
  reg "zpool" "periodic compressed-tier budget shrinks"
    [ fp "period-ms" "shrink period, ms";
      fp "hold-ms" "shrink duration, ms";
      ip "shrink" "frames to take from the zpool budget per burst" ]
    (fun a ->
      let* zp_period = rspan a "period-ms" in
      let* zp_hold = rspan a "hold-ms" in
      let* shrink = p_int a "shrink" in
      Ok
        (fun p ->
          { p with
            zpool_pressure =
              Some
                { zp_period; zp_hold;
                  zp_shrink = Option.value shrink ~default:0 } }));
  reg "crash" "a one-shot crash point tearing a durable write"
    [ fp "after-ms" "armed from this instant, ms";
      sp "site" "restrict to one crash site (default any)";
      ip "first" "restrict to writes overlapping this LBA range";
      ip "len" "length of the LBA restriction (0 = anywhere)" ]
    (fun a ->
      let* cp_after = rspan a "after-ms" in
      let* first = p_int a "first" in
      let* len = p_int a "len" in
      let cp =
        { cp_after;
          cp_site = Registry.Spec.param a "site";
          cp_first = Option.value first ~default:0;
          cp_len = Option.value len ~default:0 }
      in
      Ok (fun p -> { p with crashes = p.crashes @ [ cp ] }));
  reg "node" "remote-node faults: wipe, partitions, join, corruption"
    [ sp "name" "the node name, e.g. mem1";
      fp "wipe-ms" "lose RAM contents at this instant";
      fp "join-ms" "join the fleet at this instant";
      fp "corrupt" "per-shard-fetch corruption probability";
      sp "part" "partition window 'A-B' in ms (repeatable)" ]
    (fun a ->
      let* nf_node = rs a "name" in
      let* wipe = p_span a "wipe-ms" in
      let* join = p_span a "join-ms" in
      let* corrupt = p_float a "corrupt" in
      let* parts =
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            if k <> "part" then Ok acc
            else
              match String.index_opt v '-' with
              | None -> Error (Printf.sprintf "bad part=%S (want A-B)" v)
              | Some i -> (
                  let a' = String.sub v 0 i in
                  let b = String.sub v (i + 1) (String.length v - i - 1) in
                  match (float_of_string_opt a', float_of_string_opt b) with
                  | Some x, Some y ->
                      Ok (acc @ [ (Time.of_ms_float x, Time.of_ms_float y) ])
                  | _ -> Error (Printf.sprintf "bad part=%S (want A-B)" v)))
          (Ok []) a.Registry.Spec.params
      in
      let nf =
        { nf_node; nf_wipe_at = wipe; nf_partitions = parts;
          nf_join_at = join; nf_corrupt = Option.value corrupt ~default:0. }
      in
      Ok (fun p -> { p with node_faults = p.node_faults @ [ nf ] }))

let plan_of_specs ~seed specs =
  let rec go plan = function
    | [] -> Ok plan
    | s :: tl -> (
        match Registry.resolve site_axis s with
        | Error _ as e -> e
        | Ok f -> go (f plan) tl)
  in
  go { default_plan with seed } specs

let enabled = ref false
let the_plan = ref default_plan
let rng = ref (Rng.create ~seed:0)

type tally = {
  mutable injected_errors : int;
  mutable spikes : int;
  mutable stalls_injected : int;
  mutable chan_drops : int;
  mutable chan_delays : int;
  mutable link_drops : int;
  mutable link_delays : int;
  mutable node_wipes : int;
  mutable node_partitions : int;
  mutable node_joins : int;
  mutable shard_corruptions : int;
  mutable pressure_bursts : int;
  mutable zpool_bursts : int;
  mutable crashes : int;
  mutable retried : int;
  mutable remapped : int;
  mutable degraded : int;
  mutable killed : int;
}

let zero_tally () =
  {
    injected_errors = 0;
    spikes = 0;
    stalls_injected = 0;
    chan_drops = 0;
    chan_delays = 0;
    link_drops = 0;
    link_delays = 0;
    node_wipes = 0;
    node_partitions = 0;
    node_joins = 0;
    shard_corruptions = 0;
    pressure_bursts = 0;
    zpool_bursts = 0;
    crashes = 0;
    retried = 0;
    remapped = 0;
    degraded = 0;
    killed = 0;
  }

let counts = ref (zero_tally ())

(* Injection counts per class name (e.g. ["disk.write.persistent"],
   ["chan.drop.victim.fault"]). A class's cell is made once — a module
   constant for the fixed classes, at [reset] for the classes named
   after a plan entry — so an injection only bumps a counter. [reset]
   zeroes every cell; {!by_class} reports the cells that counted. *)
type cls = { mutable hits : int }

let classes : (string, cls) Hashtbl.t = Hashtbl.create 16

let cls name =
  match Hashtbl.find_opt classes name with
  | Some c -> c
  | None ->
      let c = { hits = 0 } in
      Hashtbl.replace classes name c;
      c

let bump c = c.hits <- c.hits + 1

(* The injector's counters, written only while Obs is on. *)
let metric c = if !Obs.enabled then Obs.Metrics.inc c
let counter = Obs.Metrics.counter
let m_errors = counter "inject.errors"
let m_spikes = counter "inject.spikes"
let m_stalls = counter "inject.stalls"
let m_chan_drops = counter "inject.chan_drops"
let m_chan_delays = counter "inject.chan_delays"
let m_link_drops = counter "inject.link_drops"
let m_link_delays = counter "inject.link_delays"
let m_node_partitions = counter "inject.node_partitions"
let m_node_wipes = counter "inject.node_wipes"
let m_node_joins = counter "inject.node_joins"
let m_shard_corruptions = counter "inject.shard_corruptions"
let m_crashes = counter "inject.crashes"
let m_retried = counter "inject.retried"
let m_remapped = counter "inject.remapped"
let m_degraded = counter "inject.degraded"
let m_killed = counter "inject.killed"
let m_pressure_bursts = counter "inject.pressure_bursts"
let m_zpool_bursts = counter "inject.zpool_bursts"
let m_zpool_shed_frames = counter "inject.zpool_shed_frames"

(* The four kinds of injected media error, each with its class and its
   [inject.errors.<op>.<kind>] counter. *)
type error_kind = { ek_cls : cls; ek_metric : Obs.Metrics.counter }

let error_kind name =
  { ek_cls = cls ("disk." ^ name); ek_metric = counter ("inject.errors." ^ name) }

let read_transient = error_kind "read.transient"
let read_persistent = error_kind "read.persistent"
let write_transient = error_kind "write.transient"
let write_persistent = error_kind "write.persistent"
let c_spike = cls "disk.spike"
let c_crash = cls "crash.write"
let c_zpool_burst = cls "zpool.burst"

(* A recovering site's class (e.g. ["sfs.read"]) and its per-outcome
   counters, made once by the site's module. *)
type recovery = {
  rc_retried : Obs.Metrics.counter;
  rc_remapped : Obs.Metrics.counter;
  rc_degraded : Obs.Metrics.counter;
  rc_killed : Obs.Metrics.counter;
}

let recovery cls =
  let c outcome = counter (Printf.sprintf "inject.%s.%s" outcome cls) in
  { rc_retried = c "retried"; rc_remapped = c "remapped";
    rc_degraded = c "degraded"; rc_killed = c "killed" }

(* -- the armed plan ---------------------------------------------------

   [reset] turns each plan entry into its armed form: its class cells
   and its one-shot state (a transient blok's remaining failures, a
   node's fired wipe, join and partition windows), so a hook looks up
   the entry and touches nothing else. Lookups by name go to the
   first entry of that name, as a plan's lists are read in order. *)

type armed_blok = { ab : blok_fault; mutable ab_left : int }

type armed_drops = {
  ad_drop : float;
  ad_delay : float;
  ad_span : Time.span;
  ad_drop_cls : cls;
  ad_delay_cls : cls;
}

type armed_stall = { as_stall : stall; as_cls : cls }

type armed_node = {
  an : node_fault;
  mutable an_wiped : bool;
  mutable an_joined : bool;
  an_entered : bool array;  (* partition windows already tallied *)
  an_wipe_cls : cls;
  an_part_cls : cls;
  an_join_cls : cls;
  an_corrupt_cls : cls;
}

let armed_bloks = ref []
let armed_stalls = ref []
let armed_chans = ref []
let armed_links = ref []
let armed_nodes = ref []

(* Crash points are one-shot: each entry of [plan.crashes] fires at
   most once per arm/reset, keyed by its position in the list. *)
let crash_fired : (int, unit) Hashtbl.t = Hashtbl.create 7

let arm_drops kind name ~drop ~delay ~span =
  ( name,
    { ad_drop = drop; ad_delay = delay; ad_span = span;
      ad_drop_cls = cls (kind ^ ".drop." ^ name);
      ad_delay_cls = cls (kind ^ ".delay." ^ name) } )

let reset () =
  let p = !the_plan in
  rng := Rng.create ~seed:p.seed;
  counts := zero_tally ();
  Hashtbl.reset crash_fired;
  Hashtbl.iter (fun _ c -> c.hits <- 0) classes;
  armed_bloks :=
    List.map
      (fun bf -> { ab = bf; ab_left = Option.value bf.bf_transient ~default:0 })
      p.blok_faults;
  armed_stalls :=
    List.map
      (fun (site, st) -> (site, { as_stall = st; as_cls = cls ("stall." ^ site) }))
      p.stalls;
  armed_chans :=
    List.map
      (fun (n, cf) ->
        arm_drops "chan" n ~drop:cf.cf_drop ~delay:cf.cf_delay
          ~span:cf.cf_delay_span)
      p.chans;
  armed_links :=
    List.map
      (fun (n, lf) ->
        arm_drops "link" n ~drop:lf.lf_drop ~delay:lf.lf_delay
          ~span:lf.lf_delay_span)
      p.links;
  armed_nodes :=
    List.map
      (fun nf ->
        let name = nf.nf_node in
        ( name,
          { an = nf; an_wiped = false; an_joined = false;
            an_entered = Array.make (List.length nf.nf_partitions) false;
            an_wipe_cls = cls ("node.wipe." ^ name);
            an_part_cls = cls ("node.partition." ^ name);
            an_join_cls = cls ("node.join." ^ name);
            an_corrupt_cls = cls ("shard.corrupt." ^ name) } ))
      p.node_faults

let arm plan =
  the_plan := plan;
  enabled := true;
  reset ()

let disarm () = enabled := false
let plan () = !the_plan

(* -- hooks ------------------------------------------------------------ *)

type disk_outcome =
  | Pass
  | Spike of Time.span
  | Media_error of { bad_lba : int; persistent : bool }

let overlaps ~first ~len ~lba ~nblocks =
  lba < first + len && first < lba + nblocks

let chance p = p > 0. && Rng.float !rng 1.0 < p

let op_matches bf op =
  match bf.bf_op with None -> true | Some o -> o = op

let media_error ~op ~persistent ~bad_lba =
  let k =
    match (op, persistent) with
    | Read, false -> read_transient
    | Read, true -> read_persistent
    | Write, false -> write_transient
    | Write, true -> write_persistent
  in
  !counts.injected_errors <- !counts.injected_errors + 1;
  bump k.ek_cls;
  metric m_errors;
  metric k.ek_metric;
  Media_error { bad_lba; persistent }

(* Probabilistic regions, consulted when no bad-blok range matched. *)
let rec region_outcome ~op ~lba ~nblocks = function
  | [] -> Pass
  | rf :: rest ->
      if not (overlaps ~first:rf.rf_first ~len:rf.rf_len ~lba ~nblocks) then
        region_outcome ~op ~lba ~nblocks rest
      else
        let err_p =
          match op with Read -> rf.rf_read_error | Write -> rf.rf_write_error
        in
        if chance err_p then
          media_error ~op ~persistent:false
            ~bad_lba:(lba + Rng.int !rng (max 1 nblocks))
        else if chance rf.rf_spike then begin
          !counts.spikes <- !counts.spikes + 1;
          bump c_spike;
          metric m_spikes;
          Spike rf.rf_spike_span
        end
        else Pass

(* Bad-blok ranges take precedence over probabilistic regions; a
   transient range fails its first [k] transactions, then heals. *)
let rec blok_outcome ~op ~lba ~nblocks = function
  | [] -> region_outcome ~op ~lba ~nblocks !the_plan.regions
  | b :: rest ->
      let bf = b.ab in
      if
        not
          (op_matches bf op
          && overlaps ~first:bf.bf_first ~len:bf.bf_len ~lba ~nblocks)
      then blok_outcome ~op ~lba ~nblocks rest
      else
        let bad_lba = max lba bf.bf_first in
        match bf.bf_transient with
        | None -> media_error ~op ~persistent:true ~bad_lba
        | Some _ ->
            if b.ab_left > 0 then begin
              b.ab_left <- b.ab_left - 1;
              media_error ~op ~persistent:false ~bad_lba
            end
            else Pass

let disk ~op ~lba ~nblocks =
  if not !enabled then Pass else blok_outcome ~op ~lba ~nblocks !armed_bloks

let stall ~site =
  if not !enabled then None
  else
    match List.assoc_opt site !armed_stalls with
    | None -> None
    | Some a ->
        if chance a.as_stall.st_rate then begin
          !counts.stalls_injected <- !counts.stalls_injected + 1;
          bump a.as_cls;
          metric m_stalls;
          Some a.as_stall.st_span
        end
        else None

type chan_outcome = Deliver | Drop | Delay of Time.span

(* Event channels and network links share one body: the named entry
   drops or delays the message per the plan. [dropped]/[delayed] bump
   the kind's tally field and counter. *)
let drops table ~name ~dropped ~delayed =
  if not !enabled then Deliver
  else
    match List.assoc_opt name table with
    | None -> Deliver
    | Some a ->
        if chance a.ad_drop then begin
          bump a.ad_drop_cls;
          dropped ();
          Drop
        end
        else if chance a.ad_delay then begin
          bump a.ad_delay_cls;
          delayed ();
          Delay a.ad_span
        end
        else Deliver

let chan_dropped () =
  !counts.chan_drops <- !counts.chan_drops + 1;
  metric m_chan_drops

let chan_delayed () =
  !counts.chan_delays <- !counts.chan_delays + 1;
  metric m_chan_delays

let link_dropped () =
  !counts.link_drops <- !counts.link_drops + 1;
  metric m_link_drops

let link_delayed () =
  !counts.link_delays <- !counts.link_delays + 1;
  metric m_link_delays

let chan ~name =
  drops !armed_chans ~name ~dropped:chan_dropped ~delayed:chan_delayed

(* Per-packet consultation by the network-link instrumentation. Drops
   model a lossy wire — the transmit completes locally but the
   receiver never sees the payload, so the tier layer retransmits or
   falls back; they need no recovery accounting of their own (the
   tier's books are checked separately by the remote experiment). *)
let link ~name =
  drops !armed_links ~name ~dropped:link_dropped ~delayed:link_delayed

(* -- node faults ------------------------------------------------------ *)

(* Whether [now] falls in one of [a]'s partition windows, from the
   [i]-th on; a window is tallied the first time it is observed. *)
let rec partitioned a ~now i = function
  | [] -> false
  | (from, until) :: rest ->
      if now >= from && now < until then begin
        if not a.an_entered.(i) then begin
          a.an_entered.(i) <- true;
          !counts.node_partitions <- !counts.node_partitions + 1;
          bump a.an_part_cls;
          metric m_node_partitions
        end;
        true
      end
      else partitioned a ~now (i + 1) rest

(* Reachability is consulted per packet by the replicated tier: a
   partitioned node is unreachable inside each window and answers
   again after it. *)
let node_reachable ~name ~now =
  if not !enabled then true
  else
    match List.assoc_opt name !armed_nodes with
    | None -> true
    | Some a -> not (partitioned a ~now 0 a.an.nf_partitions)

(* Wipes and joins are one-shot and driven by virtual time, never
   dice, so a plan names exactly which node fails or joins when: the
   first consultation at/after the planned time answers [true] and
   the caller (the fleet) must apply it. *)
let node_wipe_due ~name ~now =
  if not !enabled then false
  else
    match List.assoc_opt name !armed_nodes with
    | Some ({ an = { nf_wipe_at = Some t; _ }; an_wiped = false; _ } as a)
      when now >= t ->
        a.an_wiped <- true;
        !counts.node_wipes <- !counts.node_wipes + 1;
        bump a.an_wipe_cls;
        metric m_node_wipes;
        true
    | _ -> false

let node_join_due ~name ~now =
  if not !enabled then false
  else
    match List.assoc_opt name !armed_nodes with
    | Some ({ an = { nf_join_at = Some t; _ }; an_joined = false; _ } as a)
      when now >= t ->
        a.an_joined <- true;
        !counts.node_joins <- !counts.node_joins + 1;
        bump a.an_join_cls;
        metric m_node_joins;
        true
    | _ -> false

(* Per-shard-fetch consultation: the named node flips a bit in the
   shard it is serving, the receiver's checksum catches it, and the
   tier layer must treat the shard as lost (reconstruct / rebuild /
   fall to disk — its own books answer it, like link drops). *)
let shard_corrupt ~name =
  if not !enabled then false
  else
    match List.assoc_opt name !armed_nodes with
    | None -> false
    | Some a ->
        if chance a.an.nf_corrupt then begin
          !counts.shard_corruptions <- !counts.shard_corruptions + 1;
          bump a.an_corrupt_cls;
          metric m_shard_corruptions;
          true
        end
        else false

let pressure () = if not !enabled then None else !the_plan.pressure

let zpool_pressure () =
  if not !enabled then None else !the_plan.zpool_pressure

(* A crash point tears the durable write it fires on: only a seeded
   prefix of the transaction's bloks reaches the platter. [Rng.int]
   over [nblocks] guarantees at least the final blok is lost. *)
let crash_write ~now ~site ~lba ~nblocks =
  if not !enabled || nblocks <= 0 then None
  else begin
    let hit = ref None in
    List.iteri
      (fun i cp ->
        if
          !hit = None
          && (not (Hashtbl.mem crash_fired i))
          && now >= cp.cp_after
          && (match cp.cp_site with None -> true | Some s -> s = site)
          && (cp.cp_len = 0
             || overlaps ~first:cp.cp_first ~len:cp.cp_len ~lba ~nblocks)
        then hit := Some i)
      !the_plan.crashes;
    match !hit with
    | None -> None
    | Some i ->
        Hashtbl.replace crash_fired i ();
        !counts.crashes <- !counts.crashes + 1;
        bump c_crash;
        metric m_crashes;
        Some (Rng.int !rng nblocks)
  end

(* -- recovery accounting --------------------------------------------- *)

let note_retried cls =
  !counts.retried <- !counts.retried + 1;
  metric m_retried;
  metric cls.rc_retried

let note_remapped cls =
  !counts.remapped <- !counts.remapped + 1;
  metric m_remapped;
  metric cls.rc_remapped

let note_degraded cls =
  !counts.degraded <- !counts.degraded + 1;
  metric m_degraded;
  metric cls.rc_degraded

let note_killed cls =
  !counts.killed <- !counts.killed + 1;
  metric m_killed;
  metric cls.rc_killed

let note_pressure_burst () =
  !counts.pressure_bursts <- !counts.pressure_bursts + 1;
  metric m_pressure_bursts

(* Zpool bursts, like frame-pressure bursts, are tallied outside the
   [accounted] equation: shrinking the compressed tier's budget sheds
   clean cache copies whose durable image is already on disk, so there
   is no media error to answer — the recovery is the shed itself,
   tallied per class here. *)
let note_zpool_burst ~shed =
  !counts.zpool_bursts <- !counts.zpool_bursts + 1;
  bump c_zpool_burst;
  metric m_zpool_bursts;
  if shed > 0 && !Obs.enabled then Obs.Metrics.add m_zpool_shed_frames shed

let tally () = { !counts with injected_errors = !counts.injected_errors }

let accounted () =
  let t = !counts in
  t.injected_errors = t.retried + t.remapped + t.degraded + t.killed

let by_class () =
  Hashtbl.fold
    (fun k c acc -> if c.hits > 0 then (k, c.hits) :: acc else acc)
    classes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
