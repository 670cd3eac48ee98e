(* Allocation gate on the front end. Allocation is deterministic, so
   it is what this gate measures; wall time is the benchmark's
   business.

   For each PERFECT program it measures the words allocated by
   [Parser.parse_program] (lexing included) and by [Pipeline.run] on
   the parsed program. Each PERFECT program is a fixed point of the
   prepass, so [Pipeline.run] must return its input physically
   unchanged ([==]) and allocate next to nothing; parsing must stay
   under a bound per source byte.

   The bounds were set from the index-scanning lexer and the
   allocation-free prepass, with headroom: parsing measured 4.2 to 4.6
   words per source byte, and the prepass 30 words per program, the
   measurement's own boxing included.
   The list-based lexer allocated about 16 words per byte, and the
   prepass about 197,000 words per program. *)

open Dda_lang

let parse_words_per_byte = 6.
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
  if per_byte > parse_words_per_byte then
    Alcotest.failf "parse allocated %.0f words, %.2f per source byte (bound %.1f)" parse_w
      per_byte parse_words_per_byte;
  let prepared, pipeline_w = words (fun () -> Dda_passes.Pipeline.run prog) in
  Alcotest.(check bool) "Pipeline.run returns its input (==)" true (prepared == prog);
  if pipeline_w > pipeline_words then
    Alcotest.failf "Pipeline.run allocated %.0f words on a fixed point (bound %.0f)"
      pipeline_w pipeline_words

let () =
  Alcotest.run "frontend_alloc"
    [
      ( "perfect",
        List.map
          (fun (spec : Dda_perfect.Programs.spec) ->
             Alcotest.test_case spec.name `Quick (check_program spec))
          Dda_perfect.Programs.all );
    ]
