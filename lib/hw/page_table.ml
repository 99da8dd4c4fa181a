(** Page-table abstraction.

    The paper's production implementation is a linear page table (an
    8 GB array in the virtual address space, mapped on demand via a
    secondary table); an earlier guarded-page-table implementation was
    measured to be about three times slower on the [dirty]
    micro-benchmark. Both are provided ({!Linear_pt} maps its PTE
    pages on demand through a directory, as the paper's does); the MMU
    takes either through this record-of-functions interface.

    [lookup_refs] reports how many dependent memory references the
    lookup performs — the cost model multiplies this by the memory
    reference latency, which is how the linear-vs-guarded timing
    difference emerges from structure rather than from hard-coded
    numbers. *)

type impl = {
  kind : string;
  lookup : int -> Pte.t;
  (** [lookup vpn] returns {!Pte.absent} when no entry exists. *)
  set : int -> Pte.t -> unit;
  (** [set vpn pte]; storing {!Pte.absent} deletes the entry. *)
  lookup_refs : int -> int;
  (** Dependent memory references performed by [lookup vpn]. *)
  entries : unit -> int;
  (** Number of present entries (diagnostics). *)
}
