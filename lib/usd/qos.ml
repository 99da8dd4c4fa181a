open Engine

type t = {
  period : Time.span;
  slice : Time.span;
  extra : bool;
  laxity : Time.span;
}

let make ~period ~slice ?(extra = false) ?(laxity = Time.ms 10) () =
  if period <= 0 || slice <= 0 then
    invalid_arg "Qos.make: period and slice must be positive";
  if slice > period then invalid_arg "Qos.make: slice exceeds period";
  if laxity < 0 then invalid_arg "Qos.make: negative laxity";
  { period; slice; extra; laxity }

let share t = float_of_int t.slice /. float_of_int t.period
