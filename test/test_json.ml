(* JSON emitter tests: escaping, structure, and the report rendering. *)

open Dda_core
open Json_out

let test_scalars () =
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "true" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "-42" (to_string (Int (-42)));
  Alcotest.(check string) "string" "\"hi\"" (to_string (Str "hi"))

let test_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (to_string (Str "a\"b"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (to_string (Str "a\\b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (to_string (Str "a\nb"));
  Alcotest.(check string) "tab" "\"a\\tb\"" (to_string (Str "a\tb"));
  Alcotest.(check string) "control" "\"\\u0001\"" (to_string (Str "\001"))

let test_composite () =
  Alcotest.(check string) "empty array" "[]" (to_string (List []));
  Alcotest.(check string) "array" "[1,2,3]"
    (to_string (List [ Int 1; Int 2; Int 3 ]));
  Alcotest.(check string) "object" "{\"a\":1,\"b\":[true,null]}"
    (to_string (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ]));
  Alcotest.(check string) "empty object" "{}" (to_string (Obj []))

(* A reference writer built on [Printf], kept deliberately naive: the
   compact writer must match it byte for byte. *)
let rec reference = function
  | Null -> "null"
  | Bool b -> Printf.sprintf "%b" b
  | Int n -> Printf.sprintf "%d" n
  | Str s -> reference_string s
  | Raw s -> s
  | List items -> "[" ^ String.concat "," (List.map reference items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> reference_string k ^ ":" ^ reference v) fields)
    ^ "}"

and reference_string s =
  let b = Buffer.create 16 in
  String.iter
    (fun c ->
       Buffer.add_string b
         (match c with
          | '"' -> "\\\""
          | '\\' -> "\\\\"
          | '\n' -> "\\n"
          | '\r' -> "\\r"
          | '\t' -> "\\t"
          | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
          | c -> String.make 1 c))
    s;
  "\"" ^ Buffer.contents b ^ "\""

let gen_json =
  let open QCheck.Gen in
  let gen_int =
    frequency
      [
        (4, small_signed_int);
        (2, int);
        (1, oneofl [ 0; -1; 9; -10; 10; min_int; max_int; min_int + 1 ]);
      ]
  in
  let gen_str =
    frequency
      [
        (3, string_size ~gen:printable (int_bound 8));
        (1, string_size ~gen:char (int_bound 8));
        (1, oneofl [ "\""; "\\"; "a\nb"; "\r\t"; "\001\031"; "" ]);
      ]
  in
  sized
  @@ fix (fun self n ->
      let leaf =
        frequency
          [
            (1, return Null);
            (1, map (fun b -> Bool b) bool);
            (3, map (fun n -> Int n) gen_int);
            (3, map (fun s -> Str s) gen_str);
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> List l) (list_size (int_bound 5) (self (n / 3))));
            (1, map (fun j -> Raw (to_string j)) (self (n / 3)));
            ( 1,
              map
                (fun l -> Obj l)
                (list_size (int_bound 5) (pair gen_str (self (n / 3)))) );
          ])

let prop_matches_reference =
  QCheck.Test.make ~name:"compact writer matches a Printf reference"
    ~count:1000
    (QCheck.make ~print:reference gen_json)
    (fun j -> String.equal (to_string j) (reference j))

(* ------------------------------------------------------------------ *)
(* Raw                                                                 *)
(* ------------------------------------------------------------------ *)

(* The tree a [Raw]-holding tree denotes. *)
let rec expand = function
  | Raw s -> (
      match of_string s with
      | Ok j -> j
      | Error e -> failwith ("unparsable Raw: " ^ e))
  | List items -> List (List.map expand items)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, expand v)) fields)
  | (Null | Bool _ | Int _ | Str _) as j -> j

let rec has_raw = function
  | Raw _ -> true
  | List items -> List.exists has_raw items
  | Obj fields -> List.exists (fun (_, v) -> has_raw v) fields
  | Null | Bool _ | Int _ | Str _ -> false

let test_raw_to_string_is_identity () =
  List.iter
    (fun s ->
       Alcotest.(check bool) ("to_string (Raw " ^ s ^ ") == s") true
         (to_string (Raw s) == s))
    [ "null"; "[1,2]"; "{\"a\":\"b\\n\"}"; "" ]

let prop_pp_raw_as_tree =
  QCheck.Test.make ~name:"pp prints Raw (to_string j) exactly as j"
    ~count:500
    (QCheck.make ~print:reference gen_json)
    (fun j ->
       let j = expand j in
       let pp_s v = Format.asprintf "%a" pp v in
       String.equal (pp_s (Raw (to_string j))) (pp_s j)
       && String.equal
            (pp_s (Obj [ ("k", Raw (to_string j)); ("l", List [ Raw (to_string j) ]) ]))
            (pp_s (Obj [ ("k", j); ("l", List [ j ]) ])))

let prop_of_string_never_raw =
  QCheck.Test.make
    ~name:"of_string never yields Raw, and round-trips Raw-free trees"
    ~count:500
    (QCheck.make ~print:reference gen_json)
    (fun j ->
       match of_string (to_string j) with
       | Ok back -> (not (has_raw back)) && back = expand j
       | Error e -> QCheck.Test.fail_reportf "does not parse: %s" e)

let test_int_extremes () =
  List.iter
    (fun n ->
       Alcotest.(check string) (string_of_int n) (string_of_int n)
         (to_string (Int n)))
    [ 0; 7; -7; 10; -10; 1234567890; max_int; min_int; min_int + 1 ]

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_shape () =
  let prog =
    Dda_lang.Parser.parse_program "for i = 1 to 10 do a[i + 1] = a[i] + 3 end"
  in
  let r = Analyzer.analyze prog in
  let json = to_string (report r) in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("contains " ^ needle) true (contains needle json))
    [
      "\"pairs\":[";
      "\"array\":\"a\"";
      "\"verdict\":\"dependent\"";
      "\"directions\":\"(<)\"";
      "\"kind\":\"flow\"";
      "\"distance\":[1]";
      "\"stats\":{";
      "\"independent_pairs\":1";
      "\"dependent_pairs\":1";
    ]

let test_pp_reparses_as_same_compact () =
  (* The indented printer and the compact printer agree modulo
     whitespace. *)
  let j =
    Obj
      [
        ("x", List [ Int 1; Obj [ ("y", Str "s\"s") ]; Null ]);
        ("z", Bool false);
      ]
  in
  let pretty = Format.asprintf "%a" pp j in
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  Alcotest.(check string) "same modulo whitespace" (strip (to_string j))
    (strip pretty)

let () =
  Alcotest.run "json"
    [
      ( "emitter",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "composite" `Quick test_composite;
          Alcotest.test_case "pp vs compact" `Quick test_pp_reparses_as_same_compact;
          Alcotest.test_case "int extremes" `Quick test_int_extremes;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "raw",
        [
          Alcotest.test_case "to_string (Raw s) == s" `Quick
            test_raw_to_string_is_identity;
          QCheck_alcotest.to_alcotest prop_pp_raw_as_tree;
          QCheck_alcotest.to_alcotest prop_of_string_never_raw;
        ] );
      ("report", [ Alcotest.test_case "shape" `Quick test_report_shape ]);
    ]
