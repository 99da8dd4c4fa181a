(** A minimal file store on the file-system partition.

    Nemesis keeps filing systems at user level too; for the purposes of
    this reproduction the file store only needs to provide what mapped
    stretches and the Figure-9 file-system client require: named,
    extent-based files whose block addresses the owner can obtain and
    then access through {e its own} USD channel. All data-path QoS
    therefore belongs to the client doing the I/O, not to the store. *)

type t

type file

val create : ?first_block:int -> ?nblocks:int -> Usd.t -> t

val create_file : t -> name:string -> bytes:int -> (file, string) result
(** Allocates an extent of whole pages covering [bytes]. Fails on a
    duplicate name or when space is exhausted. *)

val find : t -> string -> file option
val delete : t -> file -> unit
val free_blocks : t -> int

val file_name : file -> string
val file_pages : file -> int
val extent_start : file -> int

val extent_blocks : file -> int
(** Length of the file's extent in disk blocks. *)

val lba_of_page : file -> int -> int
(** Raises [Invalid_argument] outside the file. *)

(** {2 Data path (caller-supplied USD client)} *)

val read_page :
  t -> file -> client:Usd.client -> page_index:int ->
  (unit, [ `Media of Usd.media | `Retired ]) result
(** Retries transient media errors a few times; [`Media] reports an
    unrecoverable error, [`Retired] a client retired or cancelled
    mid-request. As with {!Sfs.io_error}, a read loss is already
    tallied against the {!Inject} recovery books here (no caller can
    conjure the data back). *)

val write_page :
  t -> file -> client:Usd.client -> page_index:int ->
  (unit, [ `Media of Usd.media | `Retired ]) result
(** Retries like {!read_page}. A write loss is {e not} tallied: the
    caller still holds the source frame, and answering the final error
    is its duty, exactly once. *)
