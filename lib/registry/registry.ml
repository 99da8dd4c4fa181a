module Spec = struct
  type atom = {
    head : string;
    args : string list;
    params : (string * string) list;
    raw : string;
  }

  type t = { base : atom; mods : atom list; raw : string }

  (* Segments after the head are separated by ':' or ',' — ':' reads
     naturally for a single argument (wsclock:32), ',' for a list of
     [k=v] parameters. *)
  let split_segments s =
    String.split_on_char ':' s
    |> List.concat_map (String.split_on_char ',')

  let atom_of_raw raw =
    match split_segments raw with
    | [] -> Error "empty atom"
    | head :: segs ->
      let args, params =
        List.fold_left
          (fun (args, params) seg ->
            match String.index_opt seg '=' with
            | None -> (seg :: args, params)
            | Some i ->
              let k = String.sub seg 0 i in
              let v = String.sub seg (i + 1) (String.length seg - i - 1) in
              (args, (k, v) :: params))
          ([], []) segs
      in
      Ok { head; args = List.rev args; params = List.rev params; raw }

  let atom_of_string s =
    atom_of_raw (String.trim (String.lowercase_ascii s))

  let of_string s =
    let s = String.trim (String.lowercase_ascii s) in
    if s = "" then Error "empty spec"
    else
      match String.split_on_char '+' s with
      | [] -> Error "empty spec"
      | base :: mods ->
        Result.bind (atom_of_raw base) (fun base ->
            let rec go acc = function
              | [] -> Ok { base; mods = List.rev acc; raw = s }
              | m :: tl ->
                (match atom_of_raw m with
                | Ok a -> go (a :: acc) tl
                | Error _ as e -> e)
            in
            go [] mods)

  let is_digit c = c >= '0' && c <= '9'

  let split_suffix head =
    let n = String.length head in
    let rec start i = if i > 0 && is_digit head.[i - 1] then start (i - 1) else i in
    let i = start n in
    if i = 0 || i = n then None
    else Some (String.sub head 0 i, String.sub head i (n - i))

  let param a k =
    List.fold_left (fun acc (k', v) -> if k' = k then Some v else acc) None
      a.params
end

type error =
  | Unknown_extension of { axis : string; name : string; known : string list }
  | Duplicate_extension of { axis : string; name : string }
  | Malformed_spec of { axis : string; spec : string; reason : string }

(* Damerau–Levenshtein-ish distance, enough for a did-you-mean hint. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do d.(i).(0) <- i done;
  for j = 0 to lb do d.(0).(j) <- j done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min
          (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost);
      if
        i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1]
      then d.(i).(j) <- min d.(i).(j) (d.(i - 2).(j - 2) + cost)
    done
  done;
  d.(la).(lb)

let suggest ~known name =
  let prefix c = String.length name > 0
    && String.length c >= String.length name
    && String.sub c 0 (String.length name) = name
  in
  known
  |> List.filter_map (fun c ->
         let d = edit_distance name c in
         if d <= 2 || prefix c then Some (d, c) else None)
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd

let error_message = function
  | Unknown_extension { axis; name; known } ->
    let hint =
      match suggest ~known name with
      | [] -> ""
      | cs -> Printf.sprintf " (did you mean %s?)" (String.concat " or " cs)
    in
    Printf.sprintf "unknown %s %S%s; known: %s" axis name hint
      (String.concat ", " known)
  | Duplicate_extension { axis; name } ->
    Printf.sprintf "duplicate %s %S: already registered" axis name
  | Malformed_spec { axis; spec; reason } ->
    Printf.sprintf "malformed %s spec %S: %s" axis spec reason

type param_kind =
  | Flag
  | Int of int
  | String
  | Names of string list

type param = { p_name : string; p_doc : string; p_kind : param_kind }

type manifest = {
  m_name : string;
  m_doc : string;
  m_params : param list;
  m_default : string option;
}

let manifest ?(params = []) ?default ~name ~doc () =
  { m_name = String.lowercase_ascii name; m_doc = doc; m_params = params;
    m_default = default }

type 'a entry = { manifest : manifest; parse : Spec.atom -> ('a, string) result }

type 'a axis = {
  ax_name : string;
  entries : (string, 'a entry) Hashtbl.t;
}

(* One global list of (name, doc, manifests-thunk) so list-extensions
   can walk every hook point without knowing the axes' value types. *)
let all_axes : (string * string * (unit -> manifest list)) list ref = ref []

let names_of entries =
  Hashtbl.fold (fun k _ acc -> k :: acc) entries []
  |> List.sort compare

let manifests_of entries =
  names_of entries
  |> List.map (fun n -> (Hashtbl.find entries n).manifest)

let axis ~name ~doc =
  let t = { ax_name = name; entries = Hashtbl.create 8 } in
  all_axes := !all_axes @ [ (name, doc, fun () -> manifests_of t.entries) ];
  t

let axis_name t = t.ax_name

let register t manifest parse =
  let name = manifest.m_name in
  if Hashtbl.mem t.entries name then
    Error (Duplicate_extension { axis = t.ax_name; name })
  else begin
    Hashtbl.replace t.entries name { manifest; parse };
    Ok ()
  end

let register_exn t manifest parse =
  match register t manifest parse with
  | Ok () -> ()
  | Error e ->
    invalid_arg (Printf.sprintf "Registry.register (%s): %s" t.ax_name
                   (error_message e))

let names t = names_of t.entries
let mem t name = Hashtbl.mem t.entries name

let find_manifest t name =
  Option.map (fun e -> e.manifest) (Hashtbl.find_opt t.entries name)

let manifests t = manifests_of t.entries

let resolve_atom t (atom : Spec.atom) =
  let run (entry : _ entry) (atom : Spec.atom) =
    match entry.parse atom with
    | Ok _ as ok -> ok
    | Error reason ->
      Error
        (Malformed_spec { axis = t.ax_name; spec = atom.Spec.raw; reason })
  in
  match Hashtbl.find_opt t.entries atom.Spec.head with
  | Some entry -> run entry atom
  | None ->
    (* "ra8" resolves as "ra" with "8" as its first bare argument. *)
    (match Spec.split_suffix atom.Spec.head with
    | Some (stem, digits) when Hashtbl.mem t.entries stem ->
      run (Hashtbl.find t.entries stem)
        { atom with Spec.head = stem; args = digits :: atom.Spec.args }
    | _ ->
      Error
        (Unknown_extension
          { axis = t.ax_name; name = atom.Spec.head; known = names t }))

let resolve t s =
  match Spec.atom_of_string s with
  | Error reason ->
    Error (Malformed_spec { axis = t.ax_name; spec = s; reason })
  | Ok atom -> resolve_atom t atom

let axes () = List.map (fun (n, d, _) -> (n, d)) !all_axes

let axis_manifests name =
  List.find_map
    (fun (n, _, ms) -> if n = name then Some (ms ()) else None)
    !all_axes

(* --- JSON rendering --- *)

let json_opt = function None -> Json.null | Some s -> Json.string s

let json_of_param p =
  let kind, default =
    match p.p_kind with
    | Flag -> ("flag", Json.bool false)
    | Int d -> ("int", Json.int d)
    | String -> ("string", Json.null)
    | Names ds -> ("names", Json.list (List.map Json.string ds))
  in
  Json.obj
    [ ("name", Json.string p.p_name); ("doc", Json.string p.p_doc);
      ("kind", Json.string kind); ("default", default) ]

let json_of_manifest m =
  Json.obj
    [ ("name", Json.string m.m_name); ("doc", Json.string m.m_doc);
      ("default", json_opt m.m_default);
      ("params", Json.list (List.map json_of_param m.m_params)) ]

let to_json () =
  Json.list
    (List.map
       (fun (name, doc, ms) ->
         Json.obj
           [ ("axis", Json.string name); ("doc", Json.string doc);
             ("extensions", Json.list (List.map json_of_manifest (ms ()))) ])
       !all_axes)
