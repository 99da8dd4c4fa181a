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

type t

val create : ?label:string -> zpool:Zpool.t -> below:Tier.Backing.t -> unit -> t
(** [label] (default ["zram"]) names the backend in driver names and
    per-label metrics; compressing a page costs a 3 us sleep and
    decompressing one 2 us. The [zpool] may be
    shared by several [Sd_zram] fronts (one per tenant) — entries are
    keyed [label:slot], so fronts over distinct swapfiles must use
    distinct labels. *)

val backing : t -> Tier.Backing.t
(** The record to pass to [System.bind_paged ~backing]. *)
