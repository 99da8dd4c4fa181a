type probe = {
  resident : int -> bool;
  referenced : int -> bool;
  clear_referenced : int -> unit;
}

type t = {
  name : string;
  insert : int -> unit;
  victim : probe -> int option;
  remove : int -> unit;
  residents : unit -> int;
}

(* Every policy keeps a page -> epoch table; ring/queue entries carry
   the epoch they were created under, so an entry whose epoch no longer
   matches (the page was removed, or evicted and re-inserted) is stale
   and silently dropped during scans. *)

let fifo () =
  let q : (int * int) Queue.t = Queue.create () in
  let epoch : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let tick = ref 0 in
  let insert p =
    incr tick;
    Hashtbl.replace epoch p !tick;
    Queue.add (p, !tick) q
  in
  let rec victim probe =
    match Queue.take_opt q with
    | None -> None
    | Some (p, e) ->
      if Hashtbl.find_opt epoch p = Some e && probe.resident p then begin
        Hashtbl.remove epoch p;
        Some p
      end
      else victim probe
  in
  { name = "fifo";
    insert;
    victim;
    remove = (fun p -> Hashtbl.remove epoch p);
    residents = (fun () -> Hashtbl.length epoch) }

let clock () =
  let ring : (int * int) Queue.t = Queue.create () in
  let epoch : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let tick = ref 0 in
  let insert p =
    incr tick;
    Hashtbl.replace epoch p !tick;
    Queue.add (p, !tick) ring
  in
  let victim probe =
    (* Two full sweeps suffice: the first clears every referenced bit,
       the second must find an unreferenced page. The guard only
       protects against a probe whose bits re-set themselves. *)
    let guard = ref ((2 * Queue.length ring) + 2) in
    let found = ref None in
    while !found = None && !guard > 0 do
      decr guard;
      match Queue.take_opt ring with
      | None -> guard := 0
      | Some ((p, e) as entry) ->
        if Hashtbl.find_opt epoch p = Some e && probe.resident p then
          if probe.referenced p && !guard > 0 then begin
            probe.clear_referenced p;
            Queue.add entry ring (* second chance: move behind the hand *)
          end
          else begin
            Hashtbl.remove epoch p;
            found := Some p
          end
        (* stale: drop *)
    done;
    !found
  in
  { name = "clock";
    insert;
    victim;
    remove = (fun p -> Hashtbl.remove epoch p);
    residents = (fun () -> Hashtbl.length epoch) }

(* Recency stamps are (virtual time, sequence) pairs compared
   lexicographically, so stamping is a total order even when several
   pages are sampled at the same virtual instant. *)

let lru ~now () =
  let stamp : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let seq = ref 0 in
  let restamp p =
    incr seq;
    Hashtbl.replace stamp p (now (), !seq)
  in
  let sorted_pages () =
    List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) stamp [])
  in
  let victim probe =
    (* Sample referenced bits: touched pages move to "now" and get
       their detection re-armed; then the oldest stamp loses. *)
    List.iter
      (fun p ->
        if not (probe.resident p) then Hashtbl.remove stamp p
        else if probe.referenced p then begin
          probe.clear_referenced p;
          restamp p
        end)
      (sorted_pages ());
    let best =
      Hashtbl.fold
        (fun p s acc ->
          match acc with
          | Some (_, s') when s' <= s -> acc
          | _ -> Some (p, s))
        stamp None
    in
    match best with
    | Some (p, _) ->
      Hashtbl.remove stamp p;
      Some p
    | None -> None
  in
  { name = "lru";
    insert = restamp;
    victim;
    remove = (fun p -> Hashtbl.remove stamp p);
    residents = (fun () -> Hashtbl.length stamp) }

let wsclock ?(window = 16) ~now () =
  let ring : (int * int) Queue.t = Queue.create () in
  let epoch : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let stamp : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let tick = ref 0 in
  let seq = ref 0 in
  let restamp p =
    incr seq;
    Hashtbl.replace stamp p (now (), !seq)
  in
  let insert p =
    incr tick;
    Hashtbl.replace epoch p !tick;
    restamp p;
    Queue.add (p, !tick) ring
  in
  let take p =
    Hashtbl.remove epoch p;
    Hashtbl.remove stamp p;
    Some p
  in
  let victim probe =
    let live = Hashtbl.length epoch in
    let scanned = ref 0 in
    let found = ref None in
    while !found = None && !scanned < live do
      match Queue.take_opt ring with
      | None -> scanned := live
      | Some ((p, e) as entry) ->
        if Hashtbl.find_opt epoch p = Some e then
          if not (probe.resident p) then ignore (take p)
          else begin
            incr scanned;
            if probe.referenced p then begin
              probe.clear_referenced p;
              restamp p;
              Queue.add entry ring
            end
            else
              let age = now () - fst (Hashtbl.find stamp p) in
              if age > window then found := take p else Queue.add entry ring
          end
        (* stale: drop *)
    done;
    (match !found with
    | Some _ -> ()
    | None ->
      (* Whole residency inside the working-set window: fall back to
         evicting the oldest stamp so selection always terminates. *)
      let best =
        Hashtbl.fold
          (fun p s acc ->
            match acc with
            | Some (_, s') when s' <= s -> acc
            | _ -> Some (p, s))
          stamp None
      in
      (match best with
      | Some (p, _) -> found := take p
      | None -> ()));
    !found
  in
  { name = Printf.sprintf "wsclock(w=%d)" window;
    insert;
    victim;
    remove = (fun p ->
        Hashtbl.remove epoch p;
        Hashtbl.remove stamp p);
    residents = (fun () -> Hashtbl.length epoch) }
