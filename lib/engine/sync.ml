(* Call every waiter with [v], oldest first: a waiter list holds the
   newest at its head. Allocates nothing. *)
let rec wake_all v = function
  | [] -> ()
  | wake :: rest ->
    wake_all v rest;
    wake v

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let try_fill t v =
    match t.state with
    | Full _ -> false
    | Empty waiters ->
      t.state <- Full v;
      wake_all v waiters;
      true

  let fill t v =
    if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
      Proc.suspend (fun wake ->
          match t.state with
          | Full v -> wake v
          | Empty waiters -> t.state <- Empty (wake :: waiters))

  let read_timeout t d =
    match t.state with
    | Full v -> Some v
    | Empty _ ->
      let sim = Proc.current_sim () in
      let timer = ref None in
      let r =
        Proc.suspend (fun wake ->
            (match t.state with
            | Full v -> wake (Some v)
            | Empty waiters ->
              t.state <- Empty ((fun v -> wake (Some v)) :: waiters));
            timer := Some (Sim.after sim d (fun () -> wake None)))
      in
      (match (r, !timer) with
      | Some _, Some h -> Sim.cancel h
      | _ -> ());
      r

  let peek t = match t.state with Full v -> Some v | Empty _ -> None
  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
end

module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    receivers : ('a -> unit) Queue.t;
  }

  let create () = { items = Queue.create (); receivers = Queue.create () }

  let send t v =
    match Queue.take_opt t.receivers with
    | Some wake -> wake v
    | None -> Queue.add v t.items

  let try_recv t = Queue.take_opt t.items

  let recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> Proc.suspend (fun wake -> Queue.add wake t.receivers)

  let length t = Queue.length t.items
end

module Semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative count";
    { count = n; waiters = Queue.create () }

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let acquire t =
    if not (try_acquire t) then
      Proc.suspend (fun wake -> Queue.add wake t.waiters)

  let release t =
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None -> t.count <- t.count + 1

  let count t = t.count
end

module Waitq = struct
  type t = { mutable waiters : (unit -> unit) list }

  let create () = { waiters = [] }

  let wait t = Proc.suspend (fun wake -> t.waiters <- wake :: t.waiters)

  let wait_timeout t d =
    let sim = Proc.current_sim () in
    let timer = ref None in
    let signalled =
      Proc.suspend (fun wake ->
          t.waiters <- (fun () -> wake true) :: t.waiters;
          timer := Some (Sim.after sim d (fun () -> wake false)))
    in
    (match !timer with
    | Some h -> if signalled then Sim.cancel h
    | None -> ());
    signalled

  let signal t =
    match List.rev t.waiters with
    | [] -> ()
    | wake :: rest ->
      t.waiters <- List.rev rest;
      wake ()

  let broadcast t =
    let ws = t.waiters in
    t.waiters <- [];
    wake_all () ws

  let waiters t = List.length t.waiters
end
