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
