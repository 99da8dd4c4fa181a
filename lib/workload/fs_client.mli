(** The file-system client of Figure 9.

    Reads data sequentially from the file-system partition (a different
    part of the same disk as the swap files), pipelining a significant
    number of transaction requests — trading buffer space against disk
    latency — each the size of a page for homogeneity with the paging
    clients. *)

type t

val start :
  Core.System.t -> name:string -> qos:Usbs.Qos.t -> unit ->
  (t, string) result
(** Keep 16 transactions outstanding; the sampler reads the
    throughput every 5 s. *)

val sampler : t -> Sampler.t
