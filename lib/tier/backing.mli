(** The backing-store interface a paged stretch driver writes through.

    The paged driver ({!Core.Sd_paged}) is parameterised over this
    record exactly as it is over a {!Policy.Spec.t}: the default
    ({!of_sfs}) delegates every operation to the swapfile's SFS data
    path and is bit-for-bit the seed behaviour; {!Fleet.backing} puts
    the tiered store (local RAM cache → remote memory nodes → disk) in
    front of the same swapfile. Page slots are indexed in the
    swapfile's extent page space throughout, so the driver's blok
    bitmap, the out-of-place rewrite rule and the journal's committed
    set all keep their meaning unchanged. *)

type io_error = [ `Lost_pages of int list | `Retired | `Crashed ]
(** Structurally {!Usbs.Sfs.io_error}; the same answering duties
    apply (read losses are noted by the layer that lost them, write
    losses are answered by the caller exactly once per slot). *)

type t = {
  label : string;
      (** names the backend in driver names and reports; ["sfs"] is
          the seed data path and leaves driver names untouched *)
  page_capacity : unit -> int;
  journaled : unit -> bool;
      (** the durability floor has an intent journal — committing
          write paths and the out-of-place rewrite rule apply *)
  read_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_page : page_index:int -> (unit, io_error) result;
  write_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_pages_commit :
    page_index:int ->
    npages:int ->
    pages:(int * int) list ->
    retire:(int * int) list ->
    (unit, io_error) result;
  slot_committed : int -> bool;
  extent : unit -> int * int;
      (** [(first_lba, nblocks)] of the durable extent — what
          fault-injection plans scope their bad bloks to *)
}

val of_sfs : Usbs.Sfs.swapfile -> t
(** Pure delegation to the swapfile's data path: the seed semantics,
    bit-for-bit. *)

(** {1 The backing hook point}

    Backing stacks resolve by name — ["sfs"] (here),
    ["tiered:cache-pages=24"] (a one-node {!Fleet}), ["fleet"] ({!Fleet}),
    ["zram"] ([Share.Sd_zram]) — through {!Registry}. A registered
    factory may need live capabilities a spec string cannot carry
    (an admitted network client, a shared zpool, somewhere to report
    the created store); the instantiation site passes those as
    {!type:cap}s, one {!type:ctx} per driver, so per-driver state
    stays per-driver (registry isolation rule). *)

type cap = ..
(** Capabilities for registered factories, extended by the providing
    modules ([Fleet.Fleet_tier] for ["fleet"] and ["tiered"],
    [Share.Sd_zram.Zram]). *)

type ctx = cap list

type factory = ctx -> Usbs.Sfs.swapfile -> (t, string) result

val axis : factory Registry.axis
(** Hook point for backing-store names (axis ["backing"]). *)

val resolve : string -> (factory, Registry.error) result
