(** Compressed-RAM backing tier: a {!Zpool} stacked over any
    {!Tier.Backing.t}.

    [Sd_zram] slots between {!Core.Sd_paged} and its durable floor the
    same way {!Tier.Fleet} does — by building a {!Tier.Backing.t} the
    paged driver writes through. The contract:

    - {b write-through}: every page write compresses into the pool
      {e and} goes below; the pool never holds the only copy, so a
      below-write failure just drops the fresh pool entries and the
      error propagates with the seed semantics intact;
    - {b reads} that hit the pool pay a decompress sleep (microseconds)
      instead of a disk transaction; misses coalesce into contiguous
      below reads with the same partial-loss merging the tiered store
      uses;
    - {b no promote-on-read}: a miss serves from below without
      re-compressing — only writes populate the pool, keeping the
      contents a function of write traffic alone (deterministic under
      a fixed seed).

    Journal metadata ([journaled], [slot_committed], [extent]) passes
    straight through to the floor: the pool is invisible to crash
    recovery. *)

open Engine

type t

val create :
  ?label:string ->
  ?compress_us:Time.span ->
  ?decompress_us:Time.span ->
  zpool:Zpool.t ->
  below:Tier.Backing.t ->
  unit ->
  t
(** [label] (default ["zram"]) names the backend in driver names and
    per-label metrics; [compress_us]/[decompress_us] (defaults 3us/2us)
    are the per-page codec costs charged as sleeps. The [zpool] may be
    shared by several [Sd_zram] fronts (one per tenant) — entries are
    keyed [label:slot], so fronts over distinct swapfiles must use
    distinct labels. *)

val backing : t -> Tier.Backing.t
(** The record to pass to [System.bind_paged ~backing]. *)

type stats = {
  s_hits : int;  (** reads served from the pool *)
  s_misses : int;  (** reads that went below *)
  s_below_writes : int;  (** write transactions forwarded below *)
  s_dropped_on_error : int;
      (** pool entries dropped because the floor write failed *)
}

val stats : t -> stats
val zpool : t -> Zpool.t

type zram_cap = {
  zc_zpool : Zpool.t;  (** the pool shared by the tenant fleet *)
  zc_label : string;  (** per-tenant label (entries are keyed [label:slot]) *)
}

type Tier.Backing.cap += Zram of zram_cap
(** The live capability the registered ["zram"] backing consumes:
    [Tier.Backing.resolve "zram"] yields a factory that, given a ctx
    holding one of these and a swapfile, stacks {!create} over the
    swapfile's own data path and returns its {!backing}. *)
