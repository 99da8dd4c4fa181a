(** Disk geometry and timing parameters.

    Defaults model the paper's drive: a Quantum VP3221 — 2.1 GB
    (4,304,536 × 512-byte blocks), 5400 rpm, Fast SCSI-2, read cache
    enabled, write cache disabled. Zoned recording is approximated by a
    uniform sectors-per-track figure chosen to match the drive's total
    capacity and sustained media rate. *)

open Engine

type t = {
  nblocks : int;          (** total 512-byte blocks *)
  block_size : int;       (** bytes per block *)
  heads : int;            (** tracks per cylinder *)
  sectors_per_track : int;
  rotation : Time.span;   (** time of one revolution *)
  seek_min : Time.span;   (** single-cylinder seek *)
  seek_max : Time.span;   (** full-stroke seek *)
  head_switch : Time.span;
  controller_overhead : Time.span; (** per-transaction command overhead *)
  bus_rate : float;       (** host transfer rate, bytes per second *)
  cache_segments : int;   (** read-ahead segments in the drive cache *)
  write_cache : bool;     (** paper's configuration: disabled *)
}

val vp3221 : t

val cylinders : t -> int
val blocks_per_track : t -> int

val cylinder_of_lba : t -> int -> int
val sector_in_track : t -> int -> int

val media_rate : t -> float
(** Sustained media transfer rate in bytes per second (one track per
    revolution). *)

val seek_time : t -> int -> Time.span
(** [seek_time p distance] for a move of [distance] cylinders; a
    square-root curve between [seek_min] and [seek_max]. *)
