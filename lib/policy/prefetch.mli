(** Read-ahead planning.

    Generalises the seed driver's ad-hoc stream paging: given the
    demand-fault stream of one stretch, propose pages to read ahead.
    The engine only {e plans}; the driver decides what is actually
    fetchable (swapped, disk-contiguous, spare frames available) and
    reports nothing back — waste is measured by the driver itself from
    referenced bits at eviction time.

    Three modes:

    - [Off]: never plan anything;
    - [Stream w]: always propose the next [w] consecutive pages — the
      seed's fixed window, kept bit-for-bit for compatibility;
    - [Adaptive w]: detect sequential and strided fault patterns and
      open a window (up to [w]) that grows with the run length, so a
      random workload costs nothing and a scan quickly reaches full
      width. The detector accounts for its own success: when read-ahead
      covers [k] pages, the next demand fault lands [k+1] strides away
      and still extends the run.

    The mode is fixed at {!create}: [plan] returns the engine's own
    prediction and nothing else. *)

type mode = Off | Stream of int | Adaptive of int

type t

val create : mode -> t
val mode : t -> mode

val record_fault : t -> int -> unit
(** Note a demand fault (not satisfied by read-ahead) on [page]. *)

val plan : t -> page:int -> int list
(** Pages worth reading ahead after a demand fault on [page], nearest
    first. May contain out-of-range or non-swapped pages — the driver
    filters. *)
