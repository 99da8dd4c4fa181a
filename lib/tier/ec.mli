(** A deterministic systematic Reed–Solomon coder over GF(256).

    The redundancy engine behind {!Fleet}'s [Erasure] mode: a page is
    split into [k] equal data shards and extended with [m] parity
    shards, and {e any} [k] of the [k + m] shards reconstruct the page
    byte-for-byte. Storage cost is [(k + m) / k] of the page — e.g.
    1.5x for (4, 2) against 2.0x for two full replicas — while
    tolerating the loss of any [m] shards.

    Everything here is a pure function of its arguments: the code is
    built from a Vandermonde matrix brought to systematic form (the
    first [k] shards {e are} the page, split in order), so the same
    [(k, m)] always yields the same parity bytes and two same-seed
    simulation runs encode identically. No randomness, no state, no
    I/O — the module is qcheck-able in isolation.

    Losing more than [m] shards is detected, never silently papered
    over: {!decode} with fewer than [k] distinct valid shards returns
    the typed [`Unrecoverable] with the have/need counts. *)

type code
(** A (k, m) code: the systematic generator rows, built once. *)

val make : k:int -> m:int -> code
(** [make ~k ~m] builds the code. Raises [Invalid_argument] unless
    [1 <= k], [0 <= m] and [k + m <= 255] (the GF(256) limit on
    distinct evaluation points). *)

val k : code -> int
(** Data shards per page. *)

val width : code -> int
(** [k + m] — shards placed per page, on distinct nodes. *)

val shard_length : code -> page_bytes:int -> int
(** Bytes per shard for a page of [page_bytes]: [ceil (page_bytes / k)]
    (the final data shard is zero-padded). *)

val encode : code -> bytes -> bytes array
(** [encode c page] is the [k + m] shards of [page]: shards
    [0 .. k-1] are the page split in order (systematic — a healthy
    read needs no decode), shards [k .. k+m-1] the parity. *)

type shortfall = { have : int; need : int }
(** How short a failed decode fell: [have] usable shards of the
    [need = k] required. *)

val decode :
  code ->
  page_bytes:int ->
  (int * bytes) list ->
  (bytes, [ `Unrecoverable of shortfall ]) result
(** [decode c ~page_bytes shards] reconstructs the page from
    [(shard_index, shard)] pairs. Duplicate indices, out-of-range
    indices and wrong-length shards are ignored; if fewer than [k]
    usable shards remain the result is [`Unrecoverable] with the
    usable count — more than [m] losses are detected, never silent
    corruption. Deterministic: the [k] lowest usable indices are the
    ones consulted. *)
