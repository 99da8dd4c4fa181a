open Engine

(* A registered metric's storage, stamped with the generation it was
   registered in: counters and gauges share the int cell, a
   histogram's bucket counts and running moments are updated in
   place. *)
type cell = { mutable v : int; gen : int }

type hist = {
  counts : int array; (* length bounds + 1; last = overflow *)
  summary : Stats.t;
  hgen : int;
}

type metric =
  | MCounter of cell
  | MGauge of cell
  | MHist of hist

let registry : (string * string, metric) Hashtbl.t = Hashtbl.create 64

(* Bumped by [reset]. A handle whose cell is from an older generation
   registers (or joins) the current one on its next write. *)
let generation = ref 1

let latency_bounds_us =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
     10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000. |]

let nbounds = Array.length latency_bounds_us

let kind_name = function
  | MCounter _ -> "counter"
  | MGauge _ -> "gauge"
  | MHist _ -> "histogram"

let wrong_kind name label m want =
  invalid_arg
    (Printf.sprintf "Metrics: %S (label %S) is a %s, not a %s" name label
       (kind_name m) want)

let find_or ~name ~label make =
  match Hashtbl.find_opt registry (name, label) with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add registry (name, label) m;
    m

(* --- handles ------------------------------------------------------ *)

(* A handle names its metric and points at its cell; until its first
   write in a generation the cell is a stale one (at first [unbound],
   which nothing reads). *)
type 'kind handle = { name : string; label : string; mutable cell : cell }
type counter = [ `Counter ] handle
type gauge = [ `Gauge ] handle

type histogram = {
  h_name : string;
  h_label : string;
  mutable hist : hist;
}

let unbound = { v = 0; gen = 0 }

let new_hist gen =
  { counts = Array.make (nbounds + 1) 0; summary = Stats.create (); hgen = gen }

let unbound_hist = new_hist 0

let counter ?(label = "") name : counter = { name; label; cell = unbound }
let gauge ?(label = "") name : gauge = { name; label; cell = unbound }

let histogram ?(label = "") name =
  { h_name = name; h_label = label; hist = unbound_hist }

let bind_counter (h : counter) =
  let name = h.name and label = h.label in
  match find_or ~name ~label (fun () -> MCounter { v = 0; gen = !generation }) with
  | MCounter c -> h.cell <- c
  | m -> wrong_kind name label m "counter"

let bind_gauge (h : gauge) =
  let name = h.name and label = h.label in
  match find_or ~name ~label (fun () -> MGauge { v = 0; gen = !generation }) with
  | MGauge c -> h.cell <- c
  | m -> wrong_kind name label m "gauge"

let bind_hist h =
  let name = h.h_name and label = h.h_label in
  match find_or ~name ~label (fun () -> MHist (new_hist !generation)) with
  | MHist x -> h.hist <- x
  | m -> wrong_kind name label m "histogram"

let add (h : counter) n =
  if h.cell.gen <> !generation then bind_counter h;
  h.cell.v <- h.cell.v + n

let inc h = add h 1

let set (h : gauge) v =
  if h.cell.gen <> !generation then bind_gauge h;
  h.cell.v <- v

let bucket_of x =
  (* First bound >= x, by binary search; nbounds = overflow. *)
  let lo = ref 0 and hi = ref nbounds in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x <= Array.unsafe_get latency_bounds_us mid then hi := mid
    else lo := mid + 1
  done;
  !lo

let observe h x =
  if h.hist.hgen <> !generation then bind_hist h;
  let hs = h.hist in
  let i = bucket_of x in
  hs.counts.(i) <- hs.counts.(i) + 1;
  Stats.add hs.summary x

(* --- readers ------------------------------------------------------ *)

let counter_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MCounter c) -> c.v
  | _ -> 0

let gauge_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MGauge c) -> Some c.v
  | _ -> None

type hist_view = {
  hv_count : int;
  hv_mean : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (float * int) array;
}

let view_of h =
  { hv_count = Stats.count h.summary;
    hv_mean = Stats.mean h.summary;
    hv_min = Stats.min_value h.summary;
    hv_max = Stats.max_value h.summary;
    hv_buckets =
      Array.init (nbounds + 1) (fun i ->
          ( (if i = nbounds then infinity else latency_bounds_us.(i)),
            h.counts.(i) )) }

let sum_labels name =
  Hashtbl.fold
    (fun (n, _) m acc ->
      match m with MCounter c when n = name -> acc + c.v | _ -> acc)
    registry 0

let hist_view ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MHist h) -> Some (view_of h)
  | _ -> None

let hist_quantile v q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.hist_quantile: q not in [0,1]";
  if v.hv_count = 0 then nan
  else begin
    let target = q *. float_of_int v.hv_count in
    let seen = ref 0 and result = ref nan in
    Array.iter
      (fun (bound, c) ->
        if Float.is_nan !result then begin
          seen := !seen + c;
          if float_of_int !seen >= target && c > 0 then
            result := if Float.is_finite bound then bound else v.hv_max
        end)
      v.hv_buckets;
    if Float.is_nan !result then result := v.hv_max;
    !result
  end

type value = Counter of int | Gauge of int | Histogram of hist_view

let snapshot () =
  Hashtbl.fold
    (fun (name, label) m acc ->
      let v =
        match m with
        | MCounter c -> Counter c.v
        | MGauge c -> Gauge c.v
        | MHist h -> Histogram (view_of h)
      in
      (name, label, v) :: acc)
    registry []
  |> List.sort compare

let labels_of name =
  Hashtbl.fold
    (fun (n, label) _ acc -> if n = name then label :: acc else acc)
    registry []
  |> List.sort compare

let reset () =
  Hashtbl.reset registry;
  incr generation

(* --- export ------------------------------------------------------- *)

(* Whole numbers below 1e15 print without a fraction, anything else
   with %g's six significant digits. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.fixed 0 v
  else Json.signif 6 v

let to_json () =
  let bucket (bound, c) =
    Json.obj
      [ ( "le",
          if Float.is_finite bound then json_num bound
          else Json.string "inf" );
        ("count", Json.int c) ]
  in
  let fields = function
    | Counter n -> [ ("type", Json.string "counter"); ("value", Json.int n) ]
    | Gauge g ->
      [ ("type", Json.string "gauge"); ("value", json_num (float_of_int g)) ]
    | Histogram h ->
      [ ("type", Json.string "histogram"); ("count", Json.int h.hv_count);
        ("mean", json_num h.hv_mean); ("min", json_num h.hv_min);
        ("max", json_num h.hv_max);
        ("buckets", Json.list (List.map bucket (Array.to_list h.hv_buckets))) ]
  in
  Json.list
    (List.map
       (fun (name, label, v) ->
         Json.obj
           (("name", Json.string name) :: ("label", Json.string label)
           :: fields v))
       (snapshot ()))

let to_csv () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "name,label,kind,field,value\n";
  let row name label kind field value =
    Buffer.add_string b
      (Printf.sprintf "%s,%s,%s,%s,%s\n" name label kind field value)
  in
  List.iter
    (fun (name, label, v) ->
      match v with
      | Counter n -> row name label "counter" "value" (string_of_int n)
      | Gauge g ->
        row name label "gauge" "value" (Printf.sprintf "%g" (float_of_int g))
      | Histogram h ->
        row name label "histogram" "count" (string_of_int h.hv_count);
        row name label "histogram" "mean" (Printf.sprintf "%g" h.hv_mean);
        row name label "histogram" "min" (Printf.sprintf "%g" h.hv_min);
        row name label "histogram" "max" (Printf.sprintf "%g" h.hv_max);
        Array.iter
          (fun (bound, c) ->
            row name label "histogram"
              (Printf.sprintf "le_%g" bound)
              (string_of_int c))
          h.hv_buckets)
    (snapshot ());
  Buffer.contents b
