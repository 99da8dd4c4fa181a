type 'a t = (Time.t * 'a) Dynarray.t

let create () = Dynarray.create ()

let record t time v = Dynarray.add_last t (time, v)

let length = Dynarray.length

let to_list = Dynarray.to_list

let between t lo hi =
  Dynarray.fold_left
    (fun acc (time, v) ->
      if time >= lo && time < hi then (time, v) :: acc else acc)
    [] t
  |> List.rev

let iter f t = Dynarray.iter (fun (time, v) -> f time v) t
