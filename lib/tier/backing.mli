(** The backing-store interface a paged stretch driver writes through.

    The paged driver ({!Core.Sd_paged}) is parameterised over this
    record exactly as it is over a {!Policy.Spec.t}: {!of_sfs}
    delegates every operation to the swapfile's SFS data path and is
    bit-for-bit the seed behaviour; {!Fleet.backing} puts the tiered
    store (local RAM cache → remote memory nodes → disk) in front of
    the same swapfile; {!of_file} pages a memory-mapped file-store
    file. Page slots are indexed in the backing's own page space
    throughout (a swapfile's extent, a file's pages), so the driver's
    blok bitmap, the out-of-place rewrite rule and the journal's
    committed set all keep their meaning unchanged. *)

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

type file_io = {
  file_reads : int;  (** pages read from the mapped file *)
  file_writebacks : int;  (** pages written to it (shared mappings) *)
  cow_writes : int;  (** pages written to the copy file (private) *)
  cow_reads : int;  (** pages read back from the copy file *)
}

val of_file :
  Usbs.File_store.t -> client:Usbs.Usd.client -> Usbs.File_store.file ->
  npages:int -> copy:(Usbs.File_store.file * (unit -> unit)) option ->
  t * (unit -> file_io)
(** A memory-mapped file: slot [p] is the file's page [p], read and
    written through [client], the mapping domain's own USD client. The
    capacity is the mapped range, [npages] (or the file, if shorter),
    so a write the file store loses cannot be re-sited and costs the
    page. Every slot already holds its page: bind the driver with the
    identity image as its [restore].

    [copy = Some (cow, charge)] makes the mapping private: [cow]'s page
    [p] takes slot [p]'s first write, calling [charge] (the domain
    pays for the copy), and serves that slot from then on, so the file
    itself is never written. [cow] must have at least [npages] pages.

    A multi-page transfer moves one page per transaction, and there is
    no journal. The second result reads the counters. *)
