(* Allocation gates on the front end. Allocation is deterministic, so
   it is what these gates measure; wall time is the benchmark's
   business.

   For each PERFECT program it measures the words allocated by
   [Parser.parse_program] (lexing included) and by [Pipeline.run] on
   the parsed program. Each PERFECT program is a fixed point of the
   prepass, so [Pipeline.run] must return its input physically
   unchanged ([==]) and allocate next to nothing; parsing must stay
   under a bound per source byte.

   Over the 300 [Fuzz.Mixed] seed-4242 programs (the serve benchmark's
   corpus) it measures the mean words per program of parsing, of
   [Affine.extract] on the prepared program, and of
   [Analyzer.front_end] (prepass, extraction and pair enumeration).

   Bounds are the measured values with headroom; the values before
   the pull lexer and the one-pass affine conversion are at each
   constant. Run the executable with [--verbose] to see the
   figures. *)

open Dda_lang
open Dda_core

(* PERFECT parsing measured 2.14 to 2.41 words per source byte, the
   AST with its locations and its names of two letters or more; the
   token-array lexer made it 4.16 to 4.58, the list-based lexer about
   16. *)
let parse_words_per_byte = 2.6

(* The prepass measured 30 words per program, the measurement's own
   boxing included; before it was allocation-free, about 197,000. *)
let pipeline_words = 100.

(* Words allocated by [f ()], minor and major (large arrays go straight
   to the major heap), with promotions counted once. *)
let words f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = total () in
  let r = f () in
  let w1 = total () in
  (r, w1 -. w0)
let check_program (spec : Dda_perfect.Programs.spec) () =
  let src = Dda_perfect.Programs.source spec in
  (* A first run pays one-off costs (the prepass's per-domain
     workspace), which are not per-program work. *)
  ignore (Dda_passes.Pipeline.run (Parser.parse_program src));
  let prog, parse_w = words (fun () -> Parser.parse_program src) in
  let per_byte = parse_w /. float_of_int (String.length src) in
  Printf.printf "%s: parse %.0f words, %.2f per source byte\n" spec.name parse_w per_byte;
  if per_byte > parse_words_per_byte then
    Alcotest.failf "parse allocated %.0f words, %.2f per source byte (bound %.1f)" parse_w
      per_byte parse_words_per_byte;
  let prepared, pipeline_w = words (fun () -> Dda_passes.Pipeline.run prog) in
  Alcotest.(check bool) "Pipeline.run returns its input (==)" true (prepared == prog);
  if pipeline_w > pipeline_words then
    Alcotest.failf "Pipeline.run allocated %.0f words on a fixed point (bound %.0f)"
      pipeline_w pipeline_words

(* Mean words per serve-corpus program: the bound, about 10% over the
   measured value, then the value before. Parsing measured 439.9 (the
   AST and its locations), extraction 389.3, the front end 713.5. *)
let serve_parse_words = (485., 895.2)
let serve_extract_words = (430., 637.5)
let serve_front_end_words = (785., 961.8)

let test_serve_corpus () =
  let config = Analyzer.default_config in
  let srcs = List.init 300 (fun i -> Dda_perfect.Fuzz.program Mixed ~seed:4242 ~index:i) in
  let mean f xs =
    ignore (List.map f xs);
    let _, w = words (fun () -> List.map f xs) in
    (* less the list [List.map] builds *)
    (w -. (3. *. float_of_int (List.length xs))) /. float_of_int (List.length xs)
  in
  let progs = List.map Parser.parse_program srcs in
  let prepared = List.map Dda_passes.Pipeline.run progs in
  let figures =
    [
      ("parse", mean Parser.parse_program srcs, serve_parse_words);
      ("Affine.extract", mean (Affine.extract ~symbolic:config.symbolic) prepared,
       serve_extract_words);
      ("Analyzer.front_end", mean (Analyzer.front_end config) progs, serve_front_end_words);
    ]
  in
  List.iter
    (fun (what, w, _) -> Printf.printf "serve corpus: %s %.1f words per program\n" what w)
    figures;
  let failures =
    List.filter_map
      (fun (what, w, (bound, _)) ->
         if w > bound then
           Some (Printf.sprintf "%s allocated %.1f words per program (bound %.0f)" what w bound)
         else None)
      figures
  in
  if failures <> [] then Alcotest.fail (String.concat "; " failures)

let () =
  Alcotest.run "frontend_alloc"
    [
      ( "perfect",
        List.map
          (fun (spec : Dda_perfect.Programs.spec) ->
             Alcotest.test_case spec.name `Quick (check_program spec))
          Dda_perfect.Programs.all );
      ("serve", [ Alcotest.test_case "Fuzz.Mixed seed 4242" `Quick test_serve_corpus ]);
    ]
