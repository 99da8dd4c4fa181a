open Engine
open Harness

let node_name i = Printf.sprintf "n%d" i

(* Each [sc_ok] is the scenario's own verdict; the common safety
   checks (bystanders, books, lost pages, the rerun) are
   [Harness.fleet_ok]'s. *)

(* The link chaos plan: second-half packet loss and delay on the
   tier's link, nothing else — the disk stays clean so any bystander
   wobble could only have come through the network side. The fleet
   counts the drops it answered; the injector counts the drops it
   dealt. Neither reads the other, so agreement is an independent
   check on the packet ledger. *)
let remote =
  { sc_name = "remote";
    sc_title = "Remote paging: a memory tier across the network";
    sc_faults = "link chaos in the second half";
    sc_params = Usnet.Net_params.fast_ethernet;
    sc_nodes = [ "tier0" ];
    sc_standby = [];
    sc_capacity = 160;
    sc_repair = None;
    sc_cells = [ ("tier", "R=1", Tier.Fleet.Replicated 1) ];
    sc_label = "tier";
    sc_plan =
      (fun ~seed ~duration:_ ->
        { Inject.default_plan with
          seed;
          links =
            [ ( "tier0",
                { Inject.lf_drop = 0.06;
                  lf_delay = 0.05;
                  lf_delay_span = Time.of_ms_float 2.0 } ) ] });
    sc_arm = At_half;
    sc_ok =
      List.for_all (fun c ->
          let open Tier.Fleet in
          c.c_tally.Inject.link_drops > 0
          && c.c_fleet.link_drops = c.c_tally.Inject.link_drops
          && c.c_stores.st_fleet_hits > 0
          && c.c_stores.st_demotes > 0);
    sc_verdict =
      "bystanders unperturbed, tier books balance, chaos reproducible" }

(* The fault plan is pure virtual time, no dice: n1 loses its RAM for
   good at T/3 (the node stays up and answers "miss"); n2 falls off
   the network over [T/2, 2T/3] with its contents intact.

   The repair budget is deliberately a trickle (2 copies every 250 ms):
   re-replicating a wiped node takes a large fraction of the run, so
   reads must fail over to survivors in the meantime (degraded reads
   of the k = 1 stripe) — that window is the point of the experiment.
   Per-node links: 3 domains x 5/20 + the fleet's repair client 2/20 =
   0.85 of each link. *)
let failover =
  { sc_name = "failover";
    sc_title = "Failover: replicated remote memory under node loss";
    sc_faults = "wipe at T/3, partition over [T/2, 2T/3]";
    sc_params = Usnet.Net_params.fast_ethernet;
    sc_nodes = List.init 4 node_name;
    sc_standby = [];
    sc_capacity = 160;
    sc_repair = Some (Time.ms 250, 2);
    sc_cells = [ ("replicated", "R=2", Tier.Fleet.Replicated 2) ];
    sc_label = "fleet";
    sc_plan =
      (fun ~seed ~duration ->
        let d = Time.to_ns duration in
        { Inject.default_plan with
          seed;
          node_faults =
            [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
              Inject.node_fault
                ~partitions:[ (Time.ns (d / 2), Time.ns (d * 2 / 3)) ]
                (node_name 2) ] });
    sc_arm = At_start;
    sc_ok =
      List.for_all (fun c ->
          let open Tier.Fleet in
          let f = c.c_fleet in
          c.c_tally.Inject.node_wipes >= 1
          && c.c_tally.Inject.node_partitions >= 1
          && f.wipes_applied >= 1 && f.degraded_reads > 0 && f.rebuilds > 0
          && f.quarantines >= 1 && f.readmissions >= 1);
    sc_verdict =
      "node loss survived without safety loss, books balance, bystanders \
       unperturbed, reproducible" }

(* A six-member ring so an Erasure {k = 4; m = 2} stripe spans every
   member, plus one standby that joins mid-run. Capacity is generous:
   the experiment is about losses and degraded reads, not placement
   pressure (the failover experiment covers full nodes).

   Two wipes, m losses apart, plus a membership change and a lossy
   checksum — all virtual time / plan-seeded dice, no wall clock:
   n1 forgets its contents at T/3, n2 at 0.45 T (so an erasure stripe
   is down exactly m = 2 shards until repair catches up), the standby
   joins at 0.6 T, and every shard served by n3 has a 2% chance of
   failing its checksum.

   The fleet rides a gigabit fabric with jumbo frames — the
   disaggregated-memory premise (the network is an order of magnitude
   closer to DRAM than the disk); a shard or a whole page fits one
   frame. The repair budget is the failover trickle: with two nodes
   wiped the fleet cannot re-shard fast enough, so reads in the window
   MUST be served degraded — that window is what the experiment
   measures, against the disk floor the bystanders pay. *)
let erasure =
  let standby = node_name 6 in
  { sc_name = "erasure";
    sc_title =
      "Erasure: k-of-n stripes vs whole-page replicas under double node loss";
    sc_faults =
      "wipes at T/3 and 0.45T, standby joins at 0.6T, 2% corrupt serves on \
       n3";
    sc_params = Usnet.Net_params.gigabit;
    sc_nodes = List.init 6 node_name;
    sc_standby = [ standby ];
    sc_capacity = 420;
    sc_repair = Some (Time.ms 250, 2);
    sc_cells =
      [ ("replicated", "R=2", Tier.Fleet.Replicated 2);
        ("erasure", "k=4,m=2", Tier.Fleet.Erasure { k = 4; m = 2 }) ];
    sc_label = "fleet";
    sc_plan =
      (fun ~seed ~duration ->
        let d = Time.to_ns duration in
        { Inject.default_plan with
          seed;
          node_faults =
            [ Inject.node_fault ~wipe_at:(Time.ns (d / 3)) (node_name 1);
              Inject.node_fault ~wipe_at:(Time.ns (d * 45 / 100)) (node_name 2);
              Inject.node_fault ~join_at:(Time.ns (d * 3 / 5)) standby;
              Inject.node_fault ~corrupt:0.02 (node_name 3) ] });
    sc_arm = At_start;
    sc_ok =
      (fun cells ->
        let open Tier.Fleet in
        let churned c =
          c.c_fleet.wipes_applied >= 2 && c.c_fleet.node_joins >= 1
          && c.c_fleet.migrations >= 1
        in
        match cells with
        | [ rep; ec ] ->
          let f = ec.c_fleet in
          churned rep && churned ec && f.degraded_reads > 0
          && f.reconstructions > 0 && f.corrupt_shards >= 1
          && ec.c_overhead <= 1.55
          && ec.c_overhead < rep.c_overhead
          && degraded_speedup ec >= 50.0
        | _ -> false);
    sc_verdict =
      "two nodes lost, every read served from remote memory or the disk \
       floor with zero committed pages lost, parity at 1.5x storage instead \
       of 2x, books balance, reproducible" }
