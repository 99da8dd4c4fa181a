(** Remote paging: a disaggregated memory tier under QoS and link chaos.

    A mixed fleet pages over the same disk: three disk-only domains
    and three tiered domains (local RAM cache → remote memory node →
    disk), one of each per access pattern (sequential, random,
    hotspot). The tier is a one-node [Replicated 1] {!Tier.Fleet}
    reached through the registered ["tiered"] backing; the tiered
    domains' page transfers ride the node's {!Usnet.Link} under
    per-domain [(p, s, x, l)] guarantees. Halfway through, a seeded
    fault plan starts dropping and delaying packets on that link.

    The experiment passes when the chaos stays bought-and-paid-for:
    the disk-only bystanders see zero QoS violations, the fleet's
    double-entry books balance (its packet ledger included), the
    drops the fleet answered equal the drops the injector dealt,
    drops were actually injected, the tiered domains keep paging
    through the tier, and a second same-seed run reproduces the
    report byte-for-byte. *)

open Engine

type result = {
  seed : int;
  duration : Time.span;
  domains : Harness.domain_report list;
  fleet : Tier.Fleet.stats;  (** the one-node fleet behind every tiered domain *)
  store_totals : Tier.Fleet.store_stats;
      (** per-domain store counters summed across the tiered domains *)
  node : Tier.Fleet.node_health;  (** the one remote node *)
  books_balanced : bool;  (** {!Tier.Fleet.books_balanced} *)
  link_drops : int;  (** packets the injector dropped, per its tally *)
  link_delays : int;
  link_utilisation : float;
  bystander_violations : int;  (** disk-only domains; must be 0 *)
  tiered_violations : int;
  deterministic : bool;  (** second same-seed run matched byte-for-byte *)
  audit : Obs.Qos_audit.summary;
}

val run : ?seed:int -> ?duration:Time.span -> unit -> result
val ok : result -> bool
val print : result -> unit
val to_json : result -> Json.t
