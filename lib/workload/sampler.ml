open Engine

type t = {
  series : Stats.Series.t;
  period : Time.span;
}

let start sim ?(name = "watch") ~period ~bytes () =
  let series = Stats.Series.create () in
  ignore
    (Proc.spawn ~name sim (fun () ->
         let rec loop last_bytes =
           Proc.sleep period;
           let b = bytes () in
           let mbit =
             float_of_int (b - last_bytes) *. 8.0
             /. (float_of_int period /. 1e9) /. 1e6
           in
           Stats.Series.add series (Sim.now sim) mbit;
           loop b
         in
         loop (bytes ())));
  { series; period }

let series t = t.series

let sustained t ?after () =
  let cutoff =
    match after with Some a -> a | None -> 2 * t.period
  in
  Stats.Series.mean_after t.series cutoff
