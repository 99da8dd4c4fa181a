(* The running moments sit in an all-float record, which OCaml stores
   flat: [add] updates them in place without boxing. *)
type moments = {
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable minv : float;
  mutable maxv : float;
}

type t = {
  mutable n : int;
  m : moments;
  samples : float Dynarray.t option;
}

let create ?(keep_samples = false) () =
  { n = 0;
    m = { mean = 0.0; m2 = 0.0; total = 0.0; minv = nan; maxv = nan };
    samples = (if keep_samples then Some (Dynarray.create ()) else None) }

let add t x =
  t.n <- t.n + 1;
  let m = t.m in
  m.total <- m.total +. x;
  let delta = x -. m.mean in
  m.mean <- m.mean +. (delta /. float_of_int t.n);
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if t.n = 1 then begin
    m.minv <- x;
    m.maxv <- x
  end
  else begin
    if x < m.minv then m.minv <- x;
    if x > m.maxv then m.maxv <- x
  end;
  match t.samples with Some d -> Dynarray.add_last d x | None -> ()

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.m.mean

let variance t = if t.n < 2 then 0.0 else t.m.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = t.m.minv
let max_value t = t.m.maxv

let percentile t p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  match t.samples with
  | None -> invalid_arg "Stats.percentile: samples not kept"
  | Some d ->
    let n = Dynarray.length d in
    if n = 0 then nan
    else begin
      let a = Dynarray.to_array d in
      Array.sort compare a;
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
      end
    end

module Series = struct
  type t = { times : Time.t Dynarray.t; vals : float Dynarray.t }

  let create () = { times = Dynarray.create (); vals = Dynarray.create () }

  let add t time v =
    Dynarray.add_last t.times time;
    Dynarray.add_last t.vals v

  let length t = Dynarray.length t.times

  let to_list t =
    List.init (length t) (fun i ->
        (Dynarray.get t.times i, Dynarray.get t.vals i))

  let mean_after t cutoff =
    let sum = ref 0.0 and n = ref 0 in
    for i = 0 to length t - 1 do
      if Dynarray.get t.times i >= cutoff then begin
        sum := !sum +. Dynarray.get t.vals i;
        incr n
      end
    done;
    if !n = 0 then nan else !sum /. float_of_int !n
end
