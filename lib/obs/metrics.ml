open Engine

type hist = {
  bounds : float array;
  counts : int array; (* length bounds + 1; last = overflow *)
  summary : Stats.t;
}

type metric =
  | MCounter of int ref
  | MGauge of float ref
  | MHist of hist

let registry : (string * string, metric) Hashtbl.t = Hashtbl.create 64

let latency_bounds_us =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
     10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000. |]

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

let add ?(label = "") name n =
  match find_or ~name ~label (fun () -> MCounter (ref 0)) with
  | MCounter r -> r := !r + n
  | m -> wrong_kind name label m "counter"

let inc ?label name = add ?label name 1

let set_gauge ?(label = "") name v =
  match find_or ~name ~label (fun () -> MGauge (ref v)) with
  | MGauge r -> r := v
  | m -> wrong_kind name label m "gauge"

let make_hist bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics: empty histogram bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics: histogram bounds must be strictly increasing"
  done;
  { bounds; counts = Array.make (n + 1) 0;
    summary = Stats.create () }

let bucket_of h x =
  (* First bound >= x, by binary search; n = overflow. *)
  let n = Array.length h.bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x <= h.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe ?(label = "") ?(bounds = latency_bounds_us) name x =
  match find_or ~name ~label (fun () -> MHist (make_hist bounds)) with
  | MHist h ->
    let i = bucket_of h x in
    h.counts.(i) <- h.counts.(i) + 1;
    Stats.add h.summary x
  | m -> wrong_kind name label m "histogram"

let counter_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MCounter r) -> !r
  | _ -> 0

let gauge_value ?(label = "") name =
  match Hashtbl.find_opt registry (name, label) with
  | Some (MGauge r) -> Some !r
  | _ -> None

type hist_view = {
  hv_count : int;
  hv_mean : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (float * int) array;
}

let view_of h =
  let n = Array.length h.bounds in
  { hv_count = Stats.count h.summary;
    hv_mean = Stats.mean h.summary;
    hv_min = Stats.min_value h.summary;
    hv_max = Stats.max_value h.summary;
    hv_buckets =
      Array.init (n + 1) (fun i ->
          ((if i = n then infinity else h.bounds.(i)), h.counts.(i))) }

let sum_labels name =
  Hashtbl.fold
    (fun (n, _) m acc ->
      match m with MCounter r when n = name -> acc + !r | _ -> acc)
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

type value = Counter of int | Gauge of float | Histogram of hist_view

let snapshot () =
  Hashtbl.fold
    (fun (name, label) m acc ->
      let v =
        match m with
        | MCounter r -> Counter !r
        | MGauge r -> Gauge !r
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

let reset () = Hashtbl.reset registry

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
    | Gauge g -> [ ("type", Json.string "gauge"); ("value", json_num g) ]
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
      | Gauge g -> row name label "gauge" "value" (Printf.sprintf "%g" g)
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
