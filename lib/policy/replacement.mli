(** Page-replacement policies.

    A replacement policy is a pure bookkeeping object: it tracks which
    pages (of one stretch) are resident and, when asked, nominates a
    victim. It never touches hardware itself — the driver supplies a
    {!probe} at victim-selection time through which the policy can read
    and clear the per-page referenced bit (on the Alpha this is the
    FOR/FOW re-arm dance, so clearing costs two validated syscalls;
    the driver charges that to its own domain).

    Victims are always pages the policy was told about via [insert]
    and that the probe confirms resident: a policy can never nominate
    a page of someone else's stretch, a nailed frame, or a page it has
    been told to [remove] — the driver only ever unmaps what [victim]
    returns, and [victim] only ever returns what the driver inserted.

    LRU and WSClock order pages by {e per-domain virtual time}: the
    [now] thunk supplied at creation, which the paged driver advances
    once per fault it handles — a domain paging hard
    ages its pages fast; an idle domain's working set does not decay
    just because others are busy. *)

type probe = {
  resident : int -> bool;
      (** Is the page still resident? Guards against stale entries:
          pages that left residency behind the policy's back are
          skipped, never nominated. *)
  referenced : int -> bool;
      (** Hardware referenced bit: touched since last cleared. *)
  clear_referenced : int -> unit;
      (** Re-arm reference detection for the page. *)
}

type t = {
  name : string;
  insert : int -> unit;
      (** The page became resident (mapped). *)
  victim : probe -> int option;
      (** Nominate and forget a victim; [None] when nothing is
          resident. May clear referenced bits through the probe. *)
  remove : int -> unit;
      (** The page left residency without being nominated (the
          driver surrendered it to an outer pager). *)
  residents : unit -> int;
}

val fifo : unit -> t
(** Evict in map order — the seed driver's policy, bit-for-bit: victims
    come out in exactly the order [insert] was called. *)

val clock : unit -> t
(** Second chance: sweep a circular list; a referenced page gets its
    bit cleared and survives one sweep, an unreferenced one is
    evicted. *)

val lru : now:(unit -> int) -> unit -> t
(** Sampled least-recently-used: at each victim selection the policy
    samples every resident page's referenced bit, re-stamping (and
    re-arming) the touched ones with the current virtual time, then
    evicts the oldest stamp. This is the strongest recency policy a
    user-level pager can build from referenced bits alone. *)

val wsclock : ?window:int -> now:(unit -> int) -> unit -> t
(** Working-set clock: like {!clock}, but a page whose last reference
    is within [window] virtual-time units (default 16) is part of the
    working set and survives even with its bit clear; outside the
    window it is evicted. Falls back to the oldest stamp when the
    whole residency is in-window (so victim selection always
    terminates). *)
