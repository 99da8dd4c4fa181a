(** The paged stretch driver.

    An extension of the physical stretch driver with a binding to the
    User-Safe Backing Store: pages may be swapped in and out of a swap
    file whose disk transactions run under the domain's own disk
    guarantee. Swap space is tracked as a bitmap of {e bloks} (see
    {!Bloks}); a page is assigned a blok the first time it must be
    cleaned, and keeps it.

    The driver is parameterised over a {!Policy.Spec.t} — this is the
    degree of freedom the paper claims for self-paging ("applications
    are free to choose their own paging policy"):

    - {b replacement} (FIFO / Clock / LRU / WSClock) nominates
      victims, driven by the domain's own virtual time (one tick per
      fault the driver handles);
    - {b read-ahead} ([Stream]/[Adaptive]) widens a page-in to a run
      of further swapped pages whose bloks are contiguous on disk,
      using spare frames, so several page-ins collapse into one disk
      transaction (an adaptive engine also follows strided faults,
      reading strided pages whose bloks are consecutive in up to two
      further transactions);
    - {b write-behind} ([wb_batch > 1]) parks dirty evictions — frame
      pinned — and flushes them as coalesced transactions; a fault on
      a parked page is {e rescued} from the buffer with no disk I/O,
      so read-your-writes is preserved.

    The spec is fixed at {!create}; the application side ({!handle})
    reads statistics and cannot retune it. [Policy.Spec.default] (FIFO,
    no read-ahead, write-through) reproduces the seed driver's
    behaviour — same fault handling, same eviction order, same disk
    transactions.

    [forgetful] reproduces the paper's paging-{e out} experiment
    (Figure 8): the driver "forgets" that pages have a copy on disk, so
    it never pages in — every fault is a demand-zero fill and every
    eviction is a dirty write-back.

    One paged driver backs exactly one stretch. *)

type info = private {
  mutable page_ins : int;
      (** Demand page-ins: pages read from swap because a fault needed
          them. Disjoint from [prefetched] — a page read from swap is
          counted in exactly one of the two, so
          [page_ins + prefetched] is the total pages read. *)
  mutable page_outs : int;
      (** pages written to swap (immediate or batched) *)
  mutable demand_zeros : int;
  mutable evictions : int;
      (** victims unmapped (cleaned, parked or clean) *)
  mutable prefetched : int;
      (** pages brought in by read-ahead, never by demand; disjoint
          from [page_ins] (see above) *)
  mutable prefetch_hits : int;
      (** prefetched pages observed referenced before eviction *)
  mutable prefetch_waste : int;
      (** prefetched pages evicted without ever being referenced;
          hits + waste <= prefetched (still-resident ones pending) *)
  mutable wb_flushes : int;
      (** coalesced write-behind transactions issued *)
  mutable rescues : int;
      (** faults satisfied from the write-behind buffer (cancelled
          write, remapped frame, no disk I/O) *)
  mutable lost_pages : int;
      (** pages whose contents were lost to media errors after every
          recovery rung (retry, spare remap, re-blok) was exhausted;
          a later fault on such a page is a domain fault *)
  mutable rebloks : int;
      (** pages re-sited to a fresh blok after their blok went bad
          (on top of the USBS's own spare-slot remapping) *)
  mutable shed_frames : int;
      (** pool frames returned to the allocator by the swap-exhaustion
          degradation (optimistic holdings above the guarantee) *)
  mutable restored_pages : int;
      (** committed pages re-adopted from the journal's recovered
          image at bind time (restarted domains only) *)
  mutable wb_degraded : bool;
      (** write-behind lost parked data once and the driver fell back
          to synchronous write-through (sticky) *)
  mutable swap_exhausted : bool;
      (** the blok bitmap ran dry at least once (sticky) *)
  mutable crashed : bool;
      (** a crash point tore one of this driver's writes: the backing
          store is gone mid-operation, every later fault is a domain
          fault, and recovery happens at remount + restart (sticky) *)
}
(** The driver's counters; {!info} returns a copy. *)

type handle
(** The application side of the driver: its statistics. *)

val info : handle -> info

val info_since : handle -> info -> info
(** [info_since h before]: the counters accumulated since [before], an
    earlier {!info} of the same driver; the sticky flags are the
    current ones. *)

val policy_name : handle -> string

val swap_extent : handle -> int * int
(** [(first_lba, nblocks)] of the swap file's disk extent — the range
    a fault-injection plan scopes its bad bloks to. *)

(** {2 Stacking seams}

    Three hooks an outer pager (the CoW driver of [lib/share]) uses to
    compose with this one. None of them is on the default fault path:
    a driver whose handle is never frozen or adopted behaves
    bit-for-bit as before. *)

val surrender_resident : handle -> (int * int) list
(** Settle and give up every resident page: parked writes are flushed,
    dirty pages cleaned to the backing store synchronously, and each
    surrendered page flips to [Swapped] with its frame unmapped
    (Unused in the RamTab, still on the client's frame stack). Returns
    the surrendered [(page, pfn)] pairs, ready for {!Frames.transfer}
    to the share host. Pages whose durable copy cannot be established
    stay resident and are omitted. Worker/domain thread context only
    (disk I/O). *)

val adopt : handle -> page:int -> pfn:int -> unit
(** Register a private copy installed by an outer driver (a CoW
    break): the frame must already be allocated under this driver's
    frames client and mapped read-write at the page's address. The
    page enters residency dirty (no disk image yet) and is
    thereafter evicted, cleaned and revoked like any other. *)

val obtain : handle -> int option
(** Get one frame by this driver's full means — pool, allocator,
    eviction (cleaning victims as needed). The outer driver uses this
    so a CoW break's copy frame is accounted and paid for exactly like
    one of the inner driver's own page-ins. Worker thread context
    only. *)

val create :
  ?forgetful:bool -> ?initial_frames:int -> ?policy:Policy.Spec.t ->
  ?restore:(int * int) list -> ?backing:Tier.Backing.t ->
  swap:Usbs.Sfs.swapfile -> Stretch_driver.env ->
  (Stretch_driver.t * handle, string) result
(** [initial_frames] are allocated from the frames allocator up front
    (the paper's time-sensitive applications take all their guaranteed
    frames at initialisation). Fails if they cannot be obtained or the
    swap file is too small for the stretch once bound.

    [backing] routes every data-path transaction (page-ins, page-outs,
    committing flushes) through an alternative backing store — e.g.
    {!Tier.Fleet.backing} for the RAM-cache → remote-memory → disk
    tier. The default, {!Tier.Backing.of_sfs}[ swap], is the swapfile
    itself and reproduces the seed behaviour bit-for-bit. Non-default
    backends are named in the driver name ([paged(fifo@tier)]).

    [restore] is the committed [(stretch page, slot)] image recovered
    from the backing store's journal (see {!Usbs.Sfs.reattach_swap}):
    at bind time those pages start [Swapped] with their slots claimed
    out of the bitmap, so a restarted domain faults its previous
    contents back in instead of demand-zeroing. *)
