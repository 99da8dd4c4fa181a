open Engine

type violation =
  | Cpu_undersupply of
      { dom : string; entitled : Time.span; got : Time.span; periods : int }
  | Usd_undersupply of
      { stream : string; entitled : Time.span; got : Time.span; periods : int }
  | Mem_overcommit of { guaranteed : int; capacity : int }
  | Revocation_overdue of { dom : int; deadline : Time.t; finished : Time.t }
  | Guarantee_starved of { dom : int }

let class_of = function
  | Cpu_undersupply _ -> "cpu.undersupply"
  | Usd_undersupply _ -> "usd.undersupply"
  | Mem_overcommit _ -> "mem.overcommit"
  | Revocation_overdue _ -> "revocation.overdue"
  | Guarantee_starved _ -> "guarantee.starved"

let pp_violation ppf = function
  | Cpu_undersupply { dom; entitled; got; periods } ->
    Format.fprintf ppf
      "cpu undersupply: %s backlogged for %d period(s), got %a of %a" dom
      periods Time.pp_span got Time.pp_span entitled
  | Usd_undersupply { stream; entitled; got; periods } ->
    Format.fprintf ppf
      "usd undersupply: %s backlogged for %d period(s), got %a of %a" stream
      periods Time.pp_span got Time.pp_span entitled
  | Mem_overcommit { guaranteed; capacity } ->
    Format.fprintf ppf
      "memory overcommit: %d guaranteed frames exceed %d physical" guaranteed
      capacity
  | Revocation_overdue { dom; deadline; finished } ->
    Format.fprintf ppf
      "revocation overdue: domain %d finished at %a, deadline %a" dom Time.pp
      finished Time.pp deadline
  | Guarantee_starved { dom } ->
    Format.fprintf ppf
      "guarantee starved: domain %d's guaranteed frame allocation failed" dom

(* --- state --------------------------------------------------------- *)

type streak = {
  mutable periods : int;
  mutable entitled_acc : Time.span;
  mutable got_acc : Time.span;
}

let tolerance = ref 0.1
let patience = ref 2

let events_ring : violation Ring.t = Ring.create ~capacity:4096 ()
let class_counts : (string, int ref) Hashtbl.t = Hashtbl.create 8
(* Undersupply streaks per CPU client and per USD stream, by name. *)
let cpu_streaks : (string, streak) Hashtbl.t = Hashtbl.create 16
let usd_streaks : (string, streak) Hashtbl.t = Hashtbl.create 16
let mem_guarantees : (int, int) Hashtbl.t = Hashtbl.create 16
let mem_capacity = ref max_int
let boundaries = ref 0

let set_tolerance f =
  if f < 0.0 || f >= 1.0 then
    invalid_arg "Qos_audit.set_tolerance: not in [0,1)";
  tolerance := f

let set_patience n =
  if n < 1 then invalid_arg "Qos_audit.set_patience: minimum 1";
  patience := n

let record ~now v =
  Ring.record events_ring now v;
  let cls = class_of v in
  (match Hashtbl.find_opt class_counts cls with
  | Some r -> incr r
  | None -> Hashtbl.add class_counts cls (ref 1));
  Metrics.inc ~label:cls "qos.violations"

(* --- undersupply streaks ------------------------------------------- *)

type resource = Cpu | Usd

(* Keyed by the bare name, and the violation built only when one is
   recorded: an audited boundary allocates nothing. *)
let boundary resource ~now ~name ~entitled ~got ~backlogged =
  incr boundaries;
  let streaks = match resource with Cpu -> cpu_streaks | Usd -> usd_streaks in
  let s =
    match Hashtbl.find streaks name with
    | s -> s
    | exception Not_found ->
      let s = { periods = 0; entitled_acc = 0; got_acc = 0 } in
      Hashtbl.add streaks name s;
      s
  in
  let shortfall =
    float_of_int (entitled - got) > !tolerance *. float_of_int entitled
  in
  if backlogged && shortfall then begin
    s.periods <- s.periods + 1;
    s.entitled_acc <- s.entitled_acc + entitled;
    s.got_acc <- s.got_acc + got;
    if s.periods >= !patience then begin
      let entitled = s.entitled_acc and got = s.got_acc
      and periods = s.periods in
      record ~now
        (match resource with
        | Cpu -> Cpu_undersupply { dom = name; entitled; got; periods }
        | Usd -> Usd_undersupply { stream = name; entitled; got; periods });
      s.periods <- 0;
      s.entitled_acc <- 0;
      s.got_acc <- 0
    end
  end
  else begin
    s.periods <- 0;
    s.entitled_acc <- 0;
    s.got_acc <- 0
  end

let cpu_boundary ~now ~dom ~entitled ~got ~backlogged =
  boundary Cpu ~now ~name:dom ~entitled ~got ~backlogged

let usd_boundary ~now ~stream ~entitled ~got ~backlogged =
  boundary Usd ~now ~name:stream ~entitled ~got ~backlogged

(* --- memory contracts ---------------------------------------------- *)

let mem_grant ~now ~dom ~guarantee ~capacity =
  mem_capacity := capacity;
  Hashtbl.replace mem_guarantees dom guarantee;
  let total = Hashtbl.fold (fun _ g acc -> acc + g) mem_guarantees 0 in
  if total > capacity then
    record ~now (Mem_overcommit { guaranteed = total; capacity })

let mem_release ~dom = Hashtbl.remove mem_guarantees dom

(* --- revocation and starvation ------------------------------------- *)

let revocation_done ~now ~dom ~deadline ~ok =
  if (not ok) || now > deadline then
    record ~now (Revocation_overdue { dom; deadline; finished = now })

let guarantee_starved ~now ~dom = record ~now (Guarantee_starved { dom })

(* --- queries -------------------------------------------------------- *)

let total () = Ring.total events_ring

let ok () = total () = 0

let by_class () =
  Hashtbl.fold (fun cls r acc -> (cls, !r) :: acc) class_counts []
  |> List.sort compare

let events () = Ring.to_list events_ring

let events_dropped () = Ring.dropped events_ring

type summary = {
  audited_boundaries : int;
  violations : int;
  classes : (string * int) list;
  recent : (Time.t * violation) list;
}

let summarize () =
  let evs = events () in
  let n = List.length evs in
  let recent = if n > 10 then List.filteri (fun i _ -> i >= n - 10) evs else evs in
  { audited_boundaries = !boundaries; violations = total ();
    classes = by_class (); recent }

let reset () =
  Ring.clear events_ring;
  Hashtbl.reset class_counts;
  Hashtbl.reset cpu_streaks;
  Hashtbl.reset usd_streaks;
  Hashtbl.reset mem_guarantees;
  mem_capacity := max_int;
  boundaries := 0
