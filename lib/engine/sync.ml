(* Wake every waiter, oldest first: a waiter list holds the newest at
   its head. Allocates nothing. *)
let rec wake_all = function
  | [] -> ()
  | w :: rest ->
    wake_all rest;
    Proc.wake w

module Ivar = struct
  type 'a state = Empty of Proc.waiter list | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let try_fill t v =
    match t.state with
    | Full _ -> false
    | Empty waiters ->
      t.state <- Full v;
      wake_all waiters;
      true

  let fill t v =
    if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

  (* Only [try_fill] wakes a reader, so a woken reader finds the value. *)
  let filled t = match t.state with Full v -> v | Empty _ -> assert false

  let enter t waiters = t.state <- Empty (Proc.waiter () :: waiters)

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters ->
      enter t waiters;
      Proc.park ();
      filled t

  let read_timeout t d =
    match t.state with
    | Full v -> Some v
    | Empty waiters ->
      enter t waiters;
      if Proc.park_timeout d then Some (filled t) else None

  let peek t = match t.state with Full v -> Some v | Empty _ -> None
  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
end

module Handoff = struct
  (* Woken receivers resume in the order they were woken, through the
     same-instant queue, so each takes its own value off [handed]. *)
  type 'a t = { waiting : Proc.waiter Queue.t; handed : 'a Queue.t }

  let create () = { waiting = Queue.create (); handed = Queue.create () }
  let is_empty t = Queue.is_empty t.waiting

  let recv t =
    Queue.add (Proc.waiter ()) t.waiting;
    Proc.park ();
    Queue.take t.handed

  let give t v =
    let w = Queue.take t.waiting in
    if Proc.is_waiting w then begin
      Queue.add v t.handed;
      Proc.wake w
    end
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; receivers : 'a Handoff.t }

  let create () = { items = Queue.create (); receivers = Handoff.create () }

  let send t v =
    if Handoff.is_empty t.receivers then Queue.add v t.items
    else Handoff.give t.receivers v

  let try_recv t = Queue.take_opt t.items

  let recv t =
    if Queue.is_empty t.items then Handoff.recv t.receivers
    else Queue.take t.items

  let length t = Queue.length t.items
end

module Semaphore = struct
  type t = { mutable count : int; waiters : Proc.waiter Queue.t }

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
    if not (try_acquire t) then begin
      Queue.add (Proc.waiter ()) t.waiters;
      Proc.park ()
    end

  let release t =
    if Queue.is_empty t.waiters then t.count <- t.count + 1
    else Proc.wake (Queue.take t.waiters)

  let count t = t.count
end

module Waitq = struct
  type t = { mutable waiters : Proc.waiter list }

  let create () = { waiters = [] }

  let enter t = t.waiters <- Proc.waiter () :: t.waiters

  let wait t =
    enter t;
    Proc.park ()

  let wait_timeout t d =
    enter t;
    Proc.park_timeout d

  let broadcast t =
    let ws = t.waiters in
    t.waiters <- [];
    wake_all ws
end
