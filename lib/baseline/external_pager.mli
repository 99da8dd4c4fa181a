(** Microkernel-style external pager (the left half of the paper's
    Figure 2), used to {e measure} the QoS crosstalk that self-paging
    eliminates.

    A single pager domain backs the stretches of many client
    applications. Faulting clients' worker threads perform IDC to the
    pager, which services faults first-come first-served using {e its
    own} resources: one CPU contract, one frames pool, and one USD
    client shared by all paging traffic. Consequently:

    - a client that faults heavily consumes pager CPU and disk time
      that is accounted to the pager, not to itself (no
      responsibility);
    - the pager has no idea of its clients' timeliness constraints, so
      a latency-sensitive client queues behind a batch hog (no
      isolation). *)

open Engine
open Core

type t

val create :
  System.t -> ?frames:int -> ?qos:Usbs.Qos.t -> ?cpu_slice:Time.span ->
  unit -> (t, string) result
(** Creates the pager domain with a generous frame pool (default 64
    frames) and a single disk guarantee (default 50%) for {e all}
    paging. *)

val attach :
  t -> System.domain -> Stretch.t -> ?swap_bytes:int -> ?forgetful:bool ->
  unit -> (Stretch_driver.t, string) result
(** Give the stretch external-pager backing: binds a proxy driver in
    the client's MMEntry whose full path ships the fault to the pager
    queue; the pager resolves it with a paged driver running on the
    pager's own resources (2 frames per client). *)

val pager_domain : t -> System.domain
