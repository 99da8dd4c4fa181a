type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

let null = Null
let bool b = Bool b
let int i = Number (string_of_int i)
let finite fmt x = if Float.is_finite x then Number (fmt x) else Null
let fixed d = finite (Printf.sprintf "%.*f" d)
let signif n = finite (Printf.sprintf "%.*g" n)
let string s = String s
let list l = Array l
let obj ms = Object ms
let ints ms = Object (List.map (fun (k, i) -> (k, int i)) ms)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""
let member inline (k, v) = quote k ^ ": " ^ inline v

let rec inline = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number n -> n
  | String s -> quote s
  | Array l -> "[" ^ String.concat ", " (List.map inline l) ^ "]"
  | Object ms -> "{" ^ String.concat ", " (List.map (member inline) ms) ^ "}"

let block opening closing items =
  opening ^ "\n  " ^ String.concat ",\n  " items ^ "\n" ^ closing

let to_string = function
  | Array (_ :: _ as l) -> block "[" "]" (List.map inline l)
  | Object (_ :: _ as ms) -> block "{" "}" (List.map (member inline) ms)
  | v -> inline v
