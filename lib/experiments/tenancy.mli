(** The tenancy experiment: a copy-on-write fleet over stacked pagers.

    Boots one machine, warms a template domain's paged image, freezes
    it into the share registry (then kills the template — shared
    frames must survive), and forks (by default) 32 CoW tenants over
    it. Every tenant also attaches a shared read-only "text" segment,
    pages through its own [Sd_paged] stack with the compressed-RAM
    tier ([Share.Sd_zram] over one shared zpool) in front of its
    swapfile, and the zpool's budget is squeezed to zero periodically
    by an {!Inject.zpool_pressure} plan. Half the fleet is killed at
    T/2. Two ordinary self-paging bystanders run throughout.

    The run then asserts the sharing story end to end:

    - exactly one resident copy per shared page, with per-domain
      fault/hit attribution;
    - the reference books balance {e through the kills}: registry
      installs − frees = live frames, grants − breaks − detaches =
      live refs = Σ RamTab refs (nothing leaked, nothing double
      freed), and the frames allocator and RamTab agree
      frame-for-frame;
    - the bystanders log {e zero} QoS violations whatever the fleet
      does;
    - a same-seed rerun is byte-identical.

    [~share:false] freezes an untouched template (every tenant pages
    privately) and [~zram:false] removes the compressed tier — the
    control arm for [bench share]. *)

open Engine

type result = {
  seed : int;
  tenants : int;
  killed : int;
  duration : Time.span;
  share : bool;
  zram : bool;
  (* sharing *)
  template_pages : int;
  template_frozen : int;  (** frames the freeze moved to the registry *)
  cow_shared_faults : int;
  cow_breaks : int;
  break_mean_us : float;
  break_p95_us : float;
  seg_fills : int;
  seg_hits : int;
  seg_resident : int;
  reg_books : Share.Registry.books;
  reg_balanced : bool;
  refs_leaked : int;  (** RamTab refs not accounted to the registry *)
  (* residency *)
  resident_pages : int;  (** pages resident across live tenants *)
  tenant_frames : int;  (** frames live tenants hold *)
  shared_frames : int;  (** registry frames backing the shared pages *)
  frames_per_content : float;  (** resident pages per frame consumed *)
  (* compressed tier *)
  zram_hits : int;
  zram_misses : int;
  zram_hit_mean_us : float;  (** page-in cost when the pool hits *)
  zram_miss_mean_us : float;  (** page-in cost when the disk serves *)
  zpool_stats : Share.Zpool.stats option;
  zpool_frames : int;
  zpool_bursts : int;
  (* fault service *)
  fault_count : int;
  fault_mean_us : float;
  fault_p95_us : float;
  (* system books *)
  frames_total : int;
  frames_free : int;
  frames_held : int;
  frames_owned : int;
  books_balanced : bool;
  bystander_violations : int;
  violations : int;
  inject_accounted : bool;
  audit : Obs.Qos_audit.summary;
}

val run :
  ?seed:int -> ?tenants:int -> ?duration:Time.span -> ?share:bool ->
  ?zram:bool -> unit -> result
(** Defaults: seed 42, 32 tenants, 40 s, sharing and the compressed
    tier both on. Raises [Invalid_argument] below 2 tenants. *)

val ok : result -> bool
(** The experiment verdict (books, bystanders, kills, and — when the
    corresponding arm is on — sharing and compressed-tier engagement). *)

val print : result -> unit
val to_json : result -> Json.t

(** [bench share]: the shared fleet against its control arm. *)
type bench_result = {
  b_shared : result;
  b_control : result;  (** [~share:false ~zram:false], same workload *)
  b_frame_savings : float;
      (** the shared arm's resident pages per frame: unshared, each
          resident page needs its own frame *)
  b_fleet_vs_control : float;
      (** shared over control pages per frame (the control arm still
          shares the text segment) *)
  b_zram_speedup : float;  (** disk page-in mean over zram page-in mean *)
  b_ok : bool;
      (** frame savings ≥ 2×, zram page-in speedup ≥ 10×, and both
          arms' own verdicts *)
}

val bench : unit -> bench_result
(** Runs the shared fleet, then the control arm, each with {!run}'s
    defaults (seed 42, 32 tenants, 40 s). *)

val bench_print : bench_result -> unit
val bench_to_json : bench_result -> Json.t
