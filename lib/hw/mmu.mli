(** The simulated MMU: page table + TLB + FOR/FOW dirty emulation.

    [access] performs the full hardware/PALcode part of a memory
    reference: TLB lookup, table walk on miss, stretch-granularity
    protection check, and the FOR/FOW software dirty/referenced
    emulation. It returns either the physical address or the fault to
    dispatch, together with the simulated time the operation consumed.
    Fault {e dispatch} cost (context save, event send, activation) is
    charged by the fault dispatcher, not here. *)

open Engine

type fault_kind =
  | Unallocated  (** Address is not part of any stretch. *)
  | Page_fault   (** NULL/invalid mapping: no frame behind the page. *)
  | Access_violation  (** Rights do not permit the access. *)

type access = [ `Read | `Write | `Execute ]

type outcome =
  | Ok of { pa : Addr.paddr; cost : Time.span }
  | Fault of { kind : fault_kind; cost : Time.span }

type t

val create : pt:Page_table.impl -> cost:Cost.t -> unit -> t
(** The TLB has {!Tlb.create}'s default 64 entries. *)

val access :
  t -> rights:(int -> Rights.t option) -> asn:int -> Addr.vaddr -> access ->
  outcome
(** [rights sid] gives the accessing protection domain's rights for a
    stretch, [None] meaning "fall back to the PTE's global rights". *)

val lookup : t -> vpn:int -> Pte.t
(** Raw page-table read (no TLB interaction, no cost). *)

val lookup_cost : t -> vpn:int -> Time.span
(** Simulated cost of a software page-table lookup, as performed e.g.
    by the [dirty] micro-benchmark. *)

val set_pte : t -> vpn:int -> Pte.t -> unit
(** Raw page-table write; invalidates any TLB entry for the page. *)

val pp_fault_kind : Format.formatter -> fault_kind -> unit

val cost : t -> Cost.t
