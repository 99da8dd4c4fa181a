type maker = {
  mk_name : string;
  mk_make : now:(unit -> int) -> Replacement.t;
}

type replacement =
  | Fifo
  | Clock
  | Lru
  | Wsclock of { window : int }
  | Ext of maker

type t = {
  replacement : replacement;
  prefetch : Prefetch.mode;
  wb_batch : int;
}

type modifier = t -> (t, string) result

let default = { replacement = Fifo; prefetch = Prefetch.Off; wb_batch = 1 }

let replacement_name = function
  | Fifo -> "fifo"
  | Clock -> "clock"
  | Lru -> "lru"
  | Wsclock { window } ->
    if window = 16 then "wsclock" else Printf.sprintf "wsclock:%d" window
  | Ext m -> m.mk_name

let name t =
  let base = replacement_name t.replacement in
  let base =
    match t.prefetch with
    | Prefetch.Off -> base
    | Prefetch.Stream w -> Printf.sprintf "%s+ra%d" base w
    | Prefetch.Adaptive w -> Printf.sprintf "%s+ad%d" base w
  in
  if t.wb_batch > 1 then Printf.sprintf "%s+wb%d" base t.wb_batch else base

(* --- Hook points ---

   Base names resolve through [replacement_axis], '+'-separated
   modifiers through [modifier_axis]. The built-ins below reproduce
   the pre-registry closed grammar byte-for-byte (golden-tested);
   anything else is a registration, not an edit to this file. *)

let replacement_axis : replacement Registry.axis =
  Registry.axis ~name:"replacement"
    ~doc:"page-replacement policies (base name of a Policy.Spec string)"

let modifier_axis : modifier Registry.axis =
  Registry.axis ~name:"policy-modifier"
    ~doc:
      "'+'-separated policy-spec modifiers (read-ahead, write-behind); \
       a trailing integer is the modifier's argument, e.g. ra8"

(* A single optional argument: positional ([wsclock:32]), [k=v], or —
   via the registry's numeric-suffix fallback — glued on ([ra8]). *)
let one_arg atom ~key =
  match atom.Registry.Spec.args with
  | [ a ] -> Ok (Some a)
  | [] ->
    (match Registry.Spec.param atom key with
    | Some _ as v -> Ok v
    | None ->
      if atom.Registry.Spec.params = [] then Ok None
      else Error (Printf.sprintf "unknown parameter in %S" atom.Registry.Spec.raw))
  | _ -> Error (Printf.sprintf "too many arguments in %S" atom.Registry.Spec.raw)

let no_args atom v =
  if atom.Registry.Spec.args = [] && atom.Registry.Spec.params = [] then Ok v
  else Error (Printf.sprintf "%s takes no parameter" atom.Registry.Spec.head)

let () =
  let reg name doc ?params ?default parse =
    Registry.register_exn replacement_axis
      (Registry.manifest ~name ~doc ?params ?default ())
      parse
  in
  reg "fifo" "evict in map order — the seed driver's policy, bit-for-bit"
    (fun a -> no_args a Fifo);
  reg "clock" "second chance: sweep a circular list, referenced pages survive"
    (fun a -> no_args a Clock);
  reg "lru" "sampled least-recently-used over per-domain virtual time"
    (fun a -> no_args a Lru);
  reg "wsclock"
    "working-set clock: in-window pages survive even with a clear bit"
    ~params:
      [ { Registry.p_name = "window";
          p_doc = "working-set window in virtual-time units";
          p_kind = Registry.Int 16 } ]
    ~default:"wsclock:16"
    (fun a ->
      match one_arg a ~key:"window" with
      | Error _ as e -> e
      | Ok None -> Ok (Wsclock { window = 16 })
      | Ok (Some w) ->
        (match int_of_string_opt w with
        | Some w when w > 0 -> Ok (Wsclock { window = w })
        | _ -> Error (Printf.sprintf "bad wsclock window %S" w)))

let () =
  let reg name doc ~key apply =
    Registry.register_exn modifier_axis
      (Registry.manifest ~name ~doc
         ~params:
           [ { Registry.p_name = key;
               p_doc = "positive integer argument (also accepted glued on: "
                       ^ name ^ "8)";
               p_kind = Registry.Int 8 } ]
         ())
      (fun a ->
        match one_arg a ~key with
        | Error _ as e -> e
        | Ok None -> Error (Printf.sprintf "bad modifier %S" a.Registry.Spec.raw)
        | Ok (Some v) ->
          (match int_of_string_opt v with
          | Some v when v > 0 -> Ok (apply v)
          | _ -> Error (Printf.sprintf "bad modifier %S" a.Registry.Spec.raw)))
  in
  reg "ra" "stream read-ahead, window N (e.g. fifo+ra8)" ~key:"window"
    (fun w t -> Ok { t with prefetch = Prefetch.Stream w });
  reg "ad" "adaptive stride read-ahead, window up to N (e.g. clock+ad8)"
    ~key:"window" (fun w t -> Ok { t with prefetch = Prefetch.Adaptive w });
  reg "wb" "write-behind, batch N frames (e.g. lru+wb16)" ~key:"batch"
    (fun b t -> Ok { t with wb_batch = b })

let resolve_parsed (spec : Registry.Spec.t) =
  match Registry.resolve_atom replacement_axis spec.Registry.Spec.base with
  | Error _ as e -> e
  | Ok replacement ->
    List.fold_left
      (fun acc m ->
        Result.bind acc (fun t ->
            match Registry.resolve_atom modifier_axis m with
            | Error _ as e -> e
            | Ok f ->
              (match f t with
              | Ok _ as ok -> ok
              | Error reason ->
                Error
                  (Registry.Malformed_spec
                     { axis = Registry.axis_name modifier_axis;
                       spec = m.Registry.Spec.raw;
                       reason }))))
      (Ok { default with replacement })
      spec.Registry.Spec.mods

let resolve s =
  match Registry.Spec.of_string s with
  | Error reason ->
    Error
      (Registry.Malformed_spec
         { axis = Registry.axis_name replacement_axis; spec = s; reason })
  | Ok spec -> resolve_parsed spec

let of_string s =
  match resolve s with
  | Ok _ as ok -> ok
  | Error (Registry.Malformed_spec { reason = "empty spec"; _ }) ->
    (* The pre-registry parser's wording, kept for callers that match
       on it. *)
    Error "empty policy"
  | Error e -> Error (Registry.error_message e)

let presets =
  List.map
    (fun s ->
      match of_string s with
      | Ok t -> (name t, t)
      | Error e -> invalid_arg ("Spec.presets: " ^ e))
    [ "fifo"; "fifo+ra8"; "fifo+wb8"; "clock"; "lru"; "wsclock" ]

let make_replacement t ~now =
  match t.replacement with
  | Fifo -> Replacement.fifo ()
  | Clock -> Replacement.clock ()
  | Lru -> Replacement.lru ~now ()
  | Wsclock { window } -> Replacement.wsclock ~window ~now ()
  | Ext m -> m.mk_make ~now

let make_prefetch t = Prefetch.create t.prefetch
