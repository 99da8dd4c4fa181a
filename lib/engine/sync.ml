module Ivar = struct
  (* The first reader, nearly always the only one, takes a waiter slot;
     later readers queue behind it. Filling wakes them oldest first. *)
  type 'a state =
    | Empty
    | Awaited of Proc.waiter
    | Awaited_more of Proc.waiter * Proc.Fifo.t
    | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty }

  let try_fill t v =
    match t.state with
    | Full _ -> false
    | Empty ->
      t.state <- Full v;
      true
    | Awaited w ->
      t.state <- Full v;
      Proc.wake w;
      true
    | Awaited_more (w, more) ->
      t.state <- Full v;
      Proc.wake w;
      Proc.Fifo.wake_all more;
      true

  let fill t v =
    if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

  (* Only [try_fill] wakes a reader, so a woken reader finds the value. *)
  let filled t = match t.state with Full v -> v | _ -> assert false

  (* Register the current process as a reader of the empty cell. *)
  let enter t =
    match t.state with
    | Empty -> t.state <- Awaited (Proc.waiter ())
    | Awaited w ->
      let more = Proc.Fifo.create () in
      Proc.Fifo.push more 0;
      t.state <- Awaited_more (w, more)
    | Awaited_more (_, more) -> Proc.Fifo.push more 0
    | Full _ -> assert false

  let read t =
    match t.state with
    | Full v -> v
    | Empty | Awaited _ | Awaited_more _ ->
      enter t;
      Proc.park ();
      filled t

  let read_timeout t d =
    match t.state with
    | Full v -> Some v
    | Empty | Awaited _ | Awaited_more _ ->
      enter t;
      if Proc.park_timeout d then Some (filled t) else None

  let peek t = match t.state with Full v -> Some v | _ -> None
end

module Handoff = struct
  (* Woken receivers resume in the order they were woken, through the
     same-instant queue, so each takes its own value off [handed]. *)
  type 'a t = { waiting : Proc.Fifo.t; handed : 'a Queue.t }

  let create () = { waiting = Proc.Fifo.create (); handed = Queue.create () }
  let is_empty t = Proc.Fifo.is_empty t.waiting

  let recv t =
    Proc.Fifo.push t.waiting 0;
    Proc.park ();
    Queue.take t.handed

  let give t v = if Proc.Fifo.wake_first t.waiting then Queue.add v t.handed
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; receivers : 'a Handoff.t }

  let create () = { items = Queue.create (); receivers = Handoff.create () }

  let send t v =
    if Handoff.is_empty t.receivers then Queue.add v t.items
    else Handoff.give t.receivers v

  let recv t =
    if Queue.is_empty t.items then Handoff.recv t.receivers
    else Queue.take t.items

  let length t = Queue.length t.items
end

module Semaphore = struct
  type t = { mutable count : int; waiters : Proc.Fifo.t }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create: negative count";
    { count = n; waiters = Proc.Fifo.create () }

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let acquire t =
    if not (try_acquire t) then begin
      Proc.Fifo.push t.waiters 0;
      Proc.park ()
    end

  let release t =
    if Proc.Fifo.is_empty t.waiters then t.count <- t.count + 1
    else ignore (Proc.Fifo.wake_first t.waiters)
end

module Waitq = struct
  type t = Proc.Fifo.t

  let create = Proc.Fifo.create

  let wait t =
    Proc.Fifo.push t 0;
    Proc.park ()

  let wait_timeout t d =
    Proc.Fifo.push t 0;
    Proc.park_timeout d

  let broadcast = Proc.Fifo.wake_all
end
