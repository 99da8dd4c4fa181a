(* Tests for lib/json: the one string escaper, the number constructors
   and the one printed layout every JSON record shares. *)

let checks = Alcotest.(check string)
let show = Json.to_string

let escaping () =
  let str s = show (Json.string s) in
  checks "double quote and backslash" {|"a\"b\\c"|} (str {|a"b\c|});
  checks "newline and tab" {|"x\ny\tz"|} (str "x\ny\tz");
  checks "other control bytes as \\u00XX" {|"\u0001\u001f"|}
    (str "\x01\x1f");
  checks "UTF-8 bytes pass through" "\"é → ∞\"" (str "é → ∞");
  checks "keys escaped too" "{\n  \"a\\\"b\": null\n}"
    (show (Json.obj [ ({|a"b|}, Json.null) ]))

let numbers () =
  checks "NaN is null" "null" (show (Json.fixed 3 Float.nan));
  checks "+inf is null" "null" (show (Json.fixed 1 Float.infinity));
  checks "-inf is null" "null" (show (Json.signif 6 Float.neg_infinity));
  checks "signif NaN is null" "null" (show (Json.signif 6 Float.nan));
  checks "0 decimals" "30" (show (Json.fixed 0 30.));
  checks "3 decimals" "1.500" (show (Json.fixed 3 1.5));
  checks "1 decimal rounds" "2.7" (show (Json.fixed 1 2.66));
  checks "6 significant digits" "0.333333" (show (Json.signif 6 (1. /. 3.)));
  checks "significant digits drop trailing zeros" "60"
    (show (Json.signif 6 60.));
  checks "int" "-42" (show (Json.int (-42)));
  checks "bool" "false" (show (Json.bool false))

let layout () =
  checks "empty object" "{}" (show (Json.obj []));
  checks "empty array" "[]" (show (Json.list []));
  checks "top-level object: one member per line, nested inline"
    "{\n  \"a\": 1,\n  \"b\": {\"c\": [true, null], \"d\": {}, \"e\": []}\n}"
    (show
       (Json.obj
          [ ("a", Json.int 1);
            ( "b",
              Json.obj
                [ ("c", Json.list [ Json.bool true; Json.null ]);
                  ("d", Json.obj []); ("e", Json.list []) ] ) ]));
  checks "top-level array: one element per line, nested inline"
    "[\n  {\"k\": \"v\", \"n\": [1, 2]},\n  []\n]"
    (show
       (Json.list
          [ Json.obj
              [ ("k", Json.string "v");
                ("n", Json.list [ Json.int 1; Json.int 2 ]) ];
            Json.list [] ]));
  checks "a scalar prints bare" "\"x\"" (show (Json.string "x"))

let suite =
  [ ( "json",
      [ Alcotest.test_case "string escaping" `Quick escaping;
        Alcotest.test_case "number constructors" `Quick numbers;
        Alcotest.test_case "one layout" `Quick layout ] ) ]
