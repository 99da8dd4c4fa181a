(** Write-ahead intent journal for the backing store.

    A reserved region at the head of the {!Sfs} disk partition holds a
    sequence of checksummed, sequence-numbered records describing every
    metadata mutation of the backing store — swap open/close, spare
    remaps — plus the data-commit records that make
    page-out writes durable. Metadata records are appended {e before}
    the in-heap structures mutate (write-ahead); a commit record is
    appended {e after} its data write completed, so a record's presence
    certifies the data it covers.

    Records are padded to whole bloks and written through the USD under
    the journal's own small QoS guarantee, so journal traffic is
    scheduled like any other client and cannot starve the pagers.
    Durable bytes live in the {!Disk.Disk_model} per-LBA contents
    store; an {!Inject} crash point fired during an append persists
    only a prefix of the record's bloks, which {!replay} later detects
    by checksum / truncation and quarantines (the journal is erased
    from the torn record on, and appends resume over it).

    Replay is idempotent: it only reads the platter and resets the
    in-memory head/sequence cursors, so replaying twice yields the
    same record list and the same journal state. *)

type record =
  | Swap_open of {
      name : string;
      start : int;
      len : int;
      data_pages : int;
      spare_pages : int;
    }
  | Swap_close of { name : string }
  | Remap of { name : string; slot : int; spare : int }
  | Commit of {
      name : string;
      pairs : (int * int) list;
          (** (stretch page, slot) assignments made durable *)
      retire : (int * int) list;
          (** (stretch page, old slot) superseded by this commit *)
    }

type t

val create : u:Usd.t -> client:Usd.client -> first:int -> nblocks:int -> t
(** A journal over bloks [[first, first + nblocks)], appending through
    [client]. A fresh journal starts empty; call {!replay} to adopt
    whatever survives on the platter. *)

type append_error =
  [ `Crashed  (** a crash point fired mid-append; the record is torn *)
  | `Full  (** region exhausted — journaling degrades, never kills *)
  | `Io  (** unrecoverable media error on the journal region *) ]

val append : t -> site:string -> record -> (unit, append_error) result
(** Serialize, checksum and persist one record, charging the I/O to
    the journal's USD client. [site] names the swap the record is on
    behalf of (crash points are site-scoped so a victim's crash never
    fires on a bystander's append). Must run inside a simulation
    process. On [`Full] the journal latches full and every later
    append returns [`Full] immediately. *)

type replay_stats = {
  rp_replayed : int;  (** valid records recovered *)
  rp_torn : int;  (** torn/corrupt records detected and quarantined *)
  rp_scanned : int;  (** bloks scanned before the journal ended *)
}

val replay : t -> record list * replay_stats
(** Scan the region from the first blok: each record is validated
    (magic, sequence number, checksum, complete blok run) and the scan
    stops at the first blank or torn record. Everything from the stop
    point on is erased (quarantine), the head/sequence cursors are
    reset to the stop point, and the valid records are returned in
    append order. One timed USD read covers the scanned span. Must run
    inside a simulation process. *)

val first_block : t -> int
val nblocks : t -> int

val appended : t -> int
val full : t -> bool
