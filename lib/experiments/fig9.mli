(** Figure 9: file-system isolation.

    A file-system client with a 50% disk guarantee (125 ms per 250 ms)
    pipelines page-sized sequential reads from the file-system
    partition. It runs once alone and once alongside two paging
    applications with 10% and 20% guarantees. The paper's result: its
    sustained bandwidth is almost exactly the same in both runs. *)

type result = {
  alone_mbit : float;
  contended_mbit : float;
  alone_series : (Engine.Time.t * float) list;
  contended_series : (Engine.Time.t * float) list;
  pager10_mbit : float;
  pager20_mbit : float;
  isolation_error : float;
      (** |contended - alone| / alone — ~0 means perfect isolation *)
  alone_audit : Obs.Qos_audit.summary option;
      (** QoS-audit verdict per run; [None] when observability was off *)
  contended_audit : Obs.Qos_audit.summary option;
}

val run : ?duration:Engine.Time.span -> unit -> result

val print : result -> unit
val print_series : result -> unit
