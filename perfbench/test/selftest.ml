(* Self-tests of the benchmark harness: its percentile rule, its
   output check and its seeded inputs. *)

open Dda_core
open Perfbench

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_tail_rule () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Stats.beyond 1000 0.99);
  Alcotest.(check bool) "999 samples give no p99" true
    (Stats.tail_quantile (samples 999) 0.99 = None);
  Alcotest.(check bool) "1000 samples give a p99" true
    (Stats.tail_quantile (samples 1000) 0.99 <> None);
  Alcotest.(check bool) "p50 of 20 samples" true
    (Stats.tail_quantile (samples 20) 0.5 <> None);
  Alcotest.(check (float 1e-9)) "interpolated median" 2.5
    (Stats.median [| 4.; 1.; 3.; 2. |])

let test_windows () =
  let w = Stats.by_window ~width:1. ~ends:[| 0.1; 0.9; 1.2; 2.5; 2.7 |] [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "two whole windows" 2 (Array.length w);
  Alcotest.(check (array (float 0.))) "first" [| 1.; 2. |] w.(0);
  Alcotest.(check (array (float 0.))) "second" [| 3. |] w.(1)

(* Negate the first boolean inside the first pair's outcome. *)
let flip_first_verdict resp =
  let flipped = ref false in
  let rec flip = function
    | Json_out.Bool b when not !flipped ->
        flipped := true;
        Json_out.Bool (not b)
    | Json_out.Obj fields -> Json_out.Obj (List.map (fun (k, v) -> (k, flip v)) fields)
    | Json_out.List l -> Json_out.List (List.map flip l)
    | j -> j
  in
  match resp with
  | Json_out.Obj fields ->
      Json_out.Obj
        (List.map
           (function
             | "pairs", Json_out.List (Json_out.Obj p :: rest) ->
                 let p =
                   List.map (fun (k, v) -> if k = "outcome" then (k, flip v) else (k, v)) p
                 in
                 ("pairs", Json_out.List (Json_out.Obj p :: rest))
             | kv -> kv)
           fields)
  | j -> j

let test_flipped_verdict () =
  let prog = Dda_lang.Parser.parse_program "for i = 1 to 100 do\n  b[i + 2] = b[i] + 1\nend\n" in
  let report = Analyzer.analyze prog in
  let resp =
    Json_out.Obj
      [ ("id", Json_out.Null); ("ok", Json_out.Bool true); ("pairs", Corpus.report_pairs report) ]
  in
  let expected = Corpus.pairs_digest (Corpus.report_pairs report) in
  let digest line =
    match Corpus.response_digest line with Ok (d, _) -> d | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "the answer passes" expected (digest (Json_out.to_string resp));
  let bad = Json_out.to_string (flip_first_verdict resp) in
  Alcotest.(check bool) "a verdict was flipped" true (bad <> Json_out.to_string resp);
  Alcotest.(check bool) "the flipped answer fails" false (String.equal expected (digest bad));
  Alcotest.(check bool) "an error response is no answer" true
    (Result.is_error (Corpus.response_digest {|{"id":null,"ok":false,"error":"boom"}|}))

let draw seed n =
  let next, _ = Corpus.requests ~seed ~mixed:true in
  List.init n (fun _ -> next ())

let test_seeded_sequence () =
  Alcotest.(check bool) "same seed, same sequence" true (draw 7 2000 = draw 7 2000);
  Alcotest.(check bool) "another seed, another sequence" true (draw 7 2000 <> draw 8 2000);
  let fresh = List.filter (function Corpus.Fresh _ -> true | _ -> false) (draw 7 2000) in
  Alcotest.(check int) "one fresh program in four" 500 (List.length fresh);
  Alcotest.(check bool) "fresh programs in pool order" true
    (List.mapi (fun i r -> r = Corpus.Fresh i) fresh |> List.for_all Fun.id);
  let warm, _ = Corpus.requests ~seed:7 ~mixed:false in
  Alcotest.(check bool) "no fresh program when warm" true
    (List.init 2000 (fun _ -> warm ()) |> List.for_all (function Corpus.Repeat _ -> true | _ -> false));
  Alcotest.(check bool) "the seed rotates the suite" true
    (Corpus.perfect_round ~seed:1 <> Corpus.perfect_round ~seed:2
    && List.sort compare (Array.to_list (Corpus.perfect_round ~seed:1))
       = List.sort compare (Array.to_list Corpus.perfect_specs))

(* [Corpus.join] must render exactly what [Json_out.to_string] does,
   or the digest of a rendered field would not be the field's. *)
let test_join () =
  let fields = [ ("a", Json_out.Int 1); ("b\"", Json_out.List [ Json_out.Str "x"; Json_out.Null ]) ] in
  Alcotest.(check string) "same bytes" (Json_out.to_string (Json_out.Obj fields))
    (Corpus.join (List.map (fun (k, v) -> (k, Json_out.to_string v)) fields))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "p99 needs ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "windows by completion time" `Quick test_windows ] );
      ( "check",
        [ Alcotest.test_case "one flipped verdict fails the digest" `Quick test_flipped_verdict;
          Alcotest.test_case "joined fields render as Json_out does" `Quick test_join ] );
      ( "inputs",
        [ Alcotest.test_case "the same seed yields the same requests" `Quick test_seeded_sequence ] );
    ]
