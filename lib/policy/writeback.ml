type entry = { page : int; blok : int; frame : int }

type t = {
  batch : int;
  mutable parked : entry list;  (* unordered *)
}

let create ?(max_batch = 1) () = { batch = max_batch; parked = [] }

let enabled t = t.batch > 1
let pending t = List.length t.parked
let full t = pending t >= t.batch
let member t ~page = List.exists (fun e -> e.page = page) t.parked

let enqueue t ~page ~blok ~frame =
  if not (enabled t) then invalid_arg "Writeback.enqueue: batching disabled";
  if member t ~page then invalid_arg "Writeback.enqueue: page already parked";
  t.parked <- { page; blok; frame } :: t.parked

let rescue t ~page =
  match List.partition (fun e -> e.page = page) t.parked with
  | [ e ], rest ->
    t.parked <- rest;
    Some e
  | _ -> None

let flush ?(commit = fun ~page:_ -> ())
    ?(release = fun ~page:_ ~frame:_ -> ()) ~write t =
  let released = ref [] in
  let rec loop () =
    match List.sort (fun a b -> compare a.blok b.blok) t.parked with
    | [] -> ()
    | first :: rest ->
      (* Longest contiguous blok run starting at the lowest blok. *)
      let rec take acc prev = function
        | e :: tl when e.blok = prev.blok + 1 -> take (e :: acc) e tl
        | _ -> List.rev acc
      in
      let run = take [ first ] first rest in
      (* Commit point: the run leaves the buffer at the same instant
         its write is issued, so an entry is rescuable for exactly as
         long as it is parked here — there is no window in which a
         page is neither rescuable nor (at least) on its way to disk.
         [write] may block; the re-sort on the next iteration picks up
         entries parked or rescued meanwhile. *)
      let in_run e = List.exists (fun r -> r.page = e.page) run in
      t.parked <- List.filter (fun e -> not (in_run e)) t.parked;
      List.iter (fun e -> commit ~page:e.page) run;
      write ~blok:first.blok ~nbloks:(List.length run);
      List.iter (fun e -> release ~page:e.page ~frame:e.frame) run;
      released := !released @ run;
      loop ()
  in
  loop ();
  List.map (fun e -> (e.page, e.frame)) !released
