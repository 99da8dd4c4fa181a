type replacement =
  | Fifo
  | Clock
  | Lru
  | Wsclock of { window : int }

type t = {
  replacement : replacement;
  prefetch : Prefetch.mode;
  wb_batch : int;
}

let default = { replacement = Fifo; prefetch = Prefetch.Off; wb_batch = 1 }

let replacement_name = function
  | Fifo -> "fifo"
  | Clock -> "clock"
  | Lru -> "lru"
  | Wsclock { window } ->
    if window = 16 then "wsclock" else Printf.sprintf "wsclock:%d" window

let name t =
  let base = replacement_name t.replacement in
  let base =
    match t.prefetch with
    | Prefetch.Off -> base
    | Prefetch.Stream w -> Printf.sprintf "%s+ra%d" base w
    | Prefetch.Adaptive w -> Printf.sprintf "%s+ad%d" base w
  in
  if t.wb_batch > 1 then Printf.sprintf "%s+wb%d" base t.wb_batch else base

(* --- Parsing ---

   A spec is '+'-separated atoms: the base name, then modifiers. An
   atom is a name followed by ':'-separated segments, each a bare
   argument or a [k=v] parameter. *)

type atom = {
  raw : string;  (* as written, for error messages *)
  head : string;
  args : string list;
  params : (string * string) list;
}

let atom raw =
  let segs = String.split_on_char ':' raw in
  let args, params =
    List.partition_map
      (fun seg ->
        match String.index_opt seg '=' with
        | None -> Either.Left seg
        | Some i ->
          let n = String.length seg in
          Either.Right (String.sub seg 0 i, String.sub seg (i + 1) (n - i - 1)))
      (List.tl segs)
  in
  { raw; head = List.hd segs; args; params }

(* [split_suffix "ra8"] is [Some ("ra", "8")]: the alphabetic stem and
   the trailing digits. *)
let split_suffix head =
  let n = String.length head in
  let rec start i =
    if i > 0 && head.[i - 1] >= '0' && head.[i - 1] <= '9' then start (i - 1)
    else i
  in
  let i = start n in
  if i = 0 || i = n then None
  else Some (String.sub head 0 i, String.sub head i (n - i))

(* The atom's one optional argument: positional ([wsclock:32]), glued
   on ([ra8]) or by name ([wsclock:window=32], the last one given). *)
let one_arg a ~key =
  match a.args with
  | [ v ] -> Ok (Some v)
  | [] ->
    (match List.assoc_opt key (List.rev a.params) with
    | Some _ as v -> Ok v
    | None when a.params = [] -> Ok None
    | None -> Error (Printf.sprintf "unknown parameter in %S" a.raw))
  | _ -> Error (Printf.sprintf "too many arguments in %S" a.raw)

let positive v =
  match int_of_string_opt v with Some n when n > 0 -> Some n | _ -> None

let no_arg v a =
  if a.args = [] && a.params = [] then Ok v
  else Error (a.head ^ " takes no parameter")

let base_table =
  [ ("clock", no_arg Clock);
    ("fifo", no_arg Fifo);
    ("lru", no_arg Lru);
    ( "wsclock",
      fun a ->
        match one_arg a ~key:"window" with
        | Error e -> Error e
        | Ok None -> Ok (Wsclock { window = 16 })
        | Ok (Some w) ->
          (match positive w with
          | Some window -> Ok (Wsclock { window })
          | None -> Error (Printf.sprintf "bad wsclock window %S" w)) ) ]

let modifier ~key apply a =
  match one_arg a ~key with
  | Error e -> Error e
  | Ok v ->
    (match Option.bind v positive with
    | Some n -> Ok (fun t -> apply t n)
    | None -> Error (Printf.sprintf "bad modifier %S" a.raw))

let modifier_table =
  let prefetch mode t w = { t with prefetch = mode w } in
  [ ("ad", modifier ~key:"window" (prefetch (fun w -> Prefetch.Adaptive w)));
    ("ra", modifier ~key:"window" (prefetch (fun w -> Prefetch.Stream w)));
    ("wb", modifier ~key:"batch" (fun t b -> { t with wb_batch = b })) ]

let replacements = List.map fst base_table
let modifiers = List.map fst modifier_table

(* Look the atom's name up in [table] — a name with trailing digits
   as its stem, the digits its first argument — and parse the atom. *)
let resolve kind table raw =
  let a = atom raw in
  let a =
    match split_suffix a.head with
    | Some (stem, digits) when List.mem_assoc stem table ->
      { a with head = stem; args = digits :: a.args }
    | _ -> a
  in
  match List.assoc_opt a.head table with
  | None ->
    Error
      (Printf.sprintf "unknown %s %S; known: %s" kind a.head
         (String.concat ", " (List.map fst table)))
  | Some parse ->
    Result.map_error
      (Printf.sprintf "malformed %s spec %S: %s" kind raw)
      (parse a)

let of_string s =
  match String.split_on_char '+' (String.trim (String.lowercase_ascii s)) with
  | [] | [ "" ] -> Error "empty policy"
  | base :: mods ->
    Result.bind (resolve "replacement" base_table base) (fun replacement ->
        List.fold_left
          (fun acc m ->
            Result.bind acc (fun t ->
                Result.map
                  (fun f -> f t)
                  (resolve "policy-modifier" modifier_table m)))
          (Ok { default with replacement })
          mods)

let presets =
  List.map
    (fun t -> (name t, t))
    [ default;
      { default with prefetch = Prefetch.Stream 8 };
      { default with wb_batch = 8 };
      { default with replacement = Clock };
      { default with replacement = Lru };
      { default with replacement = Wsclock { window = 16 } } ]

let make_replacement t ~now =
  match t.replacement with
  | Fifo -> Replacement.fifo ()
  | Clock -> Replacement.clock ()
  | Lru -> Replacement.lru ~now ()
  | Wsclock { window } -> Replacement.wsclock ~window ~now ()

let make_prefetch t = Prefetch.create t.prefetch
