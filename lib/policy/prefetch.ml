type mode = Off | Stream of int | Adaptive of int

type t = {
  mode : mode;
  mutable last_fault : int;  (* -1 = none yet *)
  mutable stride : int;      (* detected stride; 0 = none *)
  mutable run : int;         (* consecutive faults matching the stride *)
  mutable expected : int;    (* next demand fault if the pattern holds
                                and the last plan was fully consumed *)
}

let create mode =
  { mode; last_fault = -1; stride = 0; run = 0; expected = min_int }

let mode t = t.mode

(* Window the detector currently believes in: grows with the run so a
   lone coincidence fetches little and a real scan opens up fast. *)
let adaptive_window t w =
  if t.run < 2 || t.stride = 0 then 0 else min w (2 * (t.run - 1))

let record_fault t page =
  (match t.mode with
  | Adaptive w ->
    let delta = page - t.last_fault in
    if t.last_fault < 0 then begin
      t.stride <- 0;
      t.run <- 1
    end
    else if page = t.expected && t.stride <> 0 then
      (* The gap is exactly what our own read-ahead covered: the
         pattern continues. *)
      t.run <- t.run + 1
    else if delta = t.stride && t.stride <> 0 then t.run <- t.run + 1
    else if delta <> 0 && abs delta <= w then begin
      (* Candidate new stride; takes two matching deltas to act. *)
      t.stride <- delta;
      t.run <- 2
    end
    else begin
      t.stride <- 0;
      t.run <- 1
    end;
    let k = adaptive_window t w in
    t.expected <- (if t.stride = 0 then min_int else page + ((k + 1) * t.stride))
  | Off | Stream _ -> ());
  t.last_fault <- page

let plan t ~page =
  match t.mode with
  | Off -> []
  | Stream w -> List.init w (fun i -> page + i + 1)
  | Adaptive w ->
    List.init (adaptive_window t w) (fun i -> page + ((i + 1) * t.stride))
