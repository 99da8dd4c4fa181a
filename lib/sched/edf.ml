open Engine

type client = {
  id : int;
  cname : string;
  period : Time.span;
  slice : Time.span;
  extra : bool;
  mutable deadline : Time.t;
  mutable remaining : Time.span;
  mutable used_total : Time.span;
  mutable slack_total : Time.span;
  mutable runnable : bool;
  mutable backlogged : bool;
}

let has_budget c = c.remaining > 0

(* (deadline, id) order: ids are handed out in admission order, so on
   equal deadlines the first-admitted client comes first — the
   tie-break of the seed's member-list fold. *)
let before a b =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.id < b.id)

(* Fills unused heap slots, so a removed client is not kept alive. *)
let vacant =
  { id = -1; cname = ""; period = 1; slice = 1; extra = false; deadline = 0;
    remaining = 0; used_total = 0; slack_total = 0; runnable = false;
    backlogged = false }

(* A binary min-heap of clients in (deadline, id) order, indexed by
   client id: [pos.(id)] is the client's slot in [heap], or -1, so
   membership is O(1) and removal O(log n). Deadlines only ever grow,
   so a member whose deadline moved is restored by sinking it. *)
module Dq = struct
  type t = {
    mutable heap : client array;
    mutable len : int;
    mutable pos : int array;
  }

  let create () = { heap = [||]; len = 0; pos = [||] }
  let mem q c = c.id < Array.length q.pos && q.pos.(c.id) >= 0
  let min q = q.heap.(0)

  let place q i c =
    q.heap.(i) <- c;
    q.pos.(c.id) <- i

  let rec rise q i c =
    let p = (i - 1) / 2 in
    if i > 0 && before c q.heap.(p) then begin
      place q i q.heap.(p);
      rise q p c
    end
    else place q i c

  let rec sink q i c =
    let l = (2 * i) + 1 in
    let m =
      if l + 1 < q.len && before q.heap.(l + 1) q.heap.(l) then l + 1 else l
    in
    if m < q.len && before q.heap.(m) c then begin
      place q i q.heap.(m);
      sink q m c
    end
    else place q i c

  let add q c =
    if c.id >= Array.length q.pos then begin
      let pos = Array.make (max 16 (2 * (c.id + 1))) (-1) in
      Array.blit q.pos 0 pos 0 (Array.length q.pos);
      q.pos <- pos
    end;
    if q.len = Array.length q.heap then begin
      let heap = Array.make (max 16 (2 * q.len)) vacant in
      Array.blit q.heap 0 heap 0 q.len;
      q.heap <- heap
    end;
    q.len <- q.len + 1;
    rise q (q.len - 1) c

  let remove q c =
    let i = q.pos.(c.id) in
    q.pos.(c.id) <- -1;
    q.len <- q.len - 1;
    let last = q.heap.(q.len) in
    q.heap.(q.len) <- vacant;
    if i < q.len then
      if i > 0 && before last q.heap.((i - 1) / 2) then rise q i last
      else sink q i last

  (* Make membership match [want]; a member stays in place, re-sunk in
     case its deadline grew. *)
  let set q c want =
    if mem q c then (if want then sink q q.pos.(c.id) c else remove q c)
    else if want then add q c

  (* The members due at [now], by a walk that stops below any member
     not yet due. *)
  let due q ~now =
    let rec go i acc =
      if i >= q.len || q.heap.(i).deadline > now then acc
      else go ((2 * i) + 2) (go ((2 * i) + 1) (q.heap.(i) :: acc))
    in
    go 0 []

  (* The earliest member satisfying [pred], by a depth-first walk that
     skips every subtree rooted no earlier than the best found so far
     (no member of a subtree is earlier than its root). *)
  let find_first q pred =
    let rec go i best =
      if i >= q.len then best
      else
        let c = q.heap.(i) in
        if best != vacant && not (before c best) then best
        else if pred c then c
        else go ((2 * i) + 2) (go ((2 * i) + 1) best)
    in
    let c = go 0 vacant in
    if c == vacant then None else Some c
end

type order = By_deadline | By_admission

(* Live clients are kept on an admission-ordered list, for [clients]
   and the admission-order sum in [utilisation], and on [deadlines].
   Runnable clients with budget are on [ready]: [select] drops one it
   finds out of budget and [replenish] puts it back with its next
   allocation (only [charge] lowers a budget and only [replenish]
   raises it, so [ready] holds every runnable client with budget,
   plus perhaps some that have since run dry). Backlogged clients are
   on [slack] when x-flagged, on [backlog] otherwise. *)
type t = {
  members : client Ilist.t;
  nodes : (int, client Ilist.node) Hashtbl.t;
  deadlines : Dq.t;
  ready : Dq.t;
  slack : Dq.t;
  backlog : Dq.t;
  mutable next_id : int;
  rollover : bool;
  order : order;
  mutable on_boundary :
    (client -> unused:Time.span -> boundary:Time.t -> grants:int -> unit)
    option;
}

let create ?(rollover = true) ?(order = By_deadline) () =
  { members = Ilist.create (); nodes = Hashtbl.create 64;
    deadlines = Dq.create (); ready = Dq.create ();
    slack = Dq.create (); backlog = Dq.create (); next_id = 0;
    rollover; order; on_boundary = None }

let set_boundary_hook t f = t.on_boundary <- Some f
let live t c = Dq.mem t.deadlines c

let clients t = Ilist.to_list t.members

let utilisation t =
  Ilist.fold
    (fun acc c -> acc +. (float_of_int c.slice /. float_of_int c.period))
    0.0 t.members

(* Put a live client on exactly the queues its flags, budget and x
   flag call for. *)
let requeue t c =
  Dq.set t.ready c (c.runnable && has_budget c);
  Dq.set t.slack c (c.backlogged && c.extra);
  Dq.set t.backlog c (c.backlogged && not c.extra)

let set_runnable t c v =
  if c.runnable <> v && live t c then begin
    c.runnable <- v;
    Dq.set t.ready c (v && has_budget c)
  end

let set_backlogged t c v =
  if c.backlogged <> v && live t c then begin
    c.backlogged <- v;
    Dq.set (if c.extra then t.slack else t.backlog) c v
  end

let admit t ~name ~period ~slice ?(extra = false) ~now () =
  if period <= 0 || slice <= 0 then Error "period and slice must be positive"
  else if slice > period then Error "slice exceeds period"
  else begin
    let u = utilisation t +. (float_of_int slice /. float_of_int period) in
    if u > 1.0 +. 1e-9 then
      Error (Printf.sprintf "admission refused: utilisation %.3f > 1" u)
    else begin
      let c =
        { id = t.next_id; cname = name; period; slice; extra;
          deadline = Time.add now period; remaining = slice;
          used_total = 0; slack_total = 0; runnable = true;
          backlogged = true }
      in
      t.next_id <- t.next_id + 1;
      let node = Ilist.make_node c in
      Ilist.push_back t.members node;
      Hashtbl.replace t.nodes c.id node;
      Dq.add t.deadlines c;
      requeue t c;
      Ok c
    end
  end

let remove t c =
  match Hashtbl.find_opt t.nodes c.id with
  | None -> ()
  | Some node ->
    Ilist.remove t.members node;
    Hashtbl.remove t.nodes c.id;
    List.iter
      (fun q -> if Dq.mem q c then Dq.remove q c)
      [ t.deadlines; t.ready; t.slack; t.backlog ]

let replenish t ~now c =
  let grants = ref 0 in
  let first_boundary = c.deadline in
  let unused = max 0 c.remaining in
  while c.deadline <= now do
    incr grants;
    let carry = if t.rollover && c.remaining < 0 then c.remaining else 0 in
    c.remaining <- c.slice + carry;
    c.deadline <- Time.add c.deadline c.period
  done;
  (* A client that slept across several periods does not stack
     allocations: each boundary above reset [remaining] to at most one
     slice, and the deadline caught up one period at a time. *)
  if !grants > 0 then begin
    if live t c then begin
      Dq.set t.deadlines c true;
      requeue t c
    end;
    match t.on_boundary with
    | Some f -> f c ~unused ~boundary:first_boundary ~grants:!grants
    | None -> ()
  end;
  !grants

let any_due t ~now =
  t.deadlines.len > 0 && (Dq.min t.deadlines).deadline <= now

(* Each replenished client's deadline moves past [now], so both
   orders visit every due client once. *)
let replenish_due t ~now =
  match t.order with
  | By_deadline ->
    while any_due t ~now do
      ignore (replenish t ~now (Dq.min t.deadlines))
    done
  | By_admission ->
    if any_due t ~now then
      List.iter
        (fun c -> ignore (replenish t ~now c))
        (List.sort
           (fun a b -> Int.compare a.id b.id)
           (Dq.due t.deadlines ~now))

let charge c span =
  c.remaining <- c.remaining - span;
  c.used_total <- c.used_total + span

let charge_slack c span =
  c.used_total <- c.used_total + span;
  c.slack_total <- c.slack_total + span

(* Drop runnable clients that ran out of budget from the top of
   [ready]: they wait for their next allocation off the queue. *)
let rec park_exhausted t =
  if t.ready.len > 0 && not (has_budget (Dq.min t.ready)) then begin
    Dq.remove t.ready (Dq.min t.ready);
    park_exhausted t
  end

let select ?only t ~now:_ =
  park_exhausted t;
  match only with
  | None -> if t.ready.len = 0 then None else Some (Dq.min t.ready)
  | Some only -> Dq.find_first t.ready (fun c -> has_budget c && only c)

let select_slack t ~now:_ =
  if t.slack.len = 0 then None else Some (Dq.min t.slack)

let next_deadline t =
  if t.deadlines.len = 0 then None else Some (Dq.min t.deadlines).deadline

let next_backlogged_deadline t =
  match (t.slack.len, t.backlog.len) with
  | 0, 0 -> None
  | 0, _ -> Some (Dq.min t.backlog).deadline
  | _, 0 -> Some (Dq.min t.slack).deadline
  | _ -> Some (min (Dq.min t.slack).deadline (Dq.min t.backlog).deadline)
