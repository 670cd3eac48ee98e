(* The direct JSON writers against the tree renderers they replaced:
   [Json_out.report]'s pair list against [Json_out.pair] trees, and
   [Lint.to_json] against the tree-building renderer kept below as its
   oracle. Both must agree byte for byte, compact and indented, on
   fuzzed programs (full and starved budgets, so degraded reasons,
   [exact:false] and missing witnesses appear), on every PERFECT
   program, and on fixtures for escaping, beyond-native numbers, empty
   lists and findings. *)

open Dda_lang
open Dda_core
open Dda_perfect
open Dda_analysis
open Json_out

(* ------------------------------------------------------------------ *)
(* Oracles: the tree renderers                                          *)
(* ------------------------------------------------------------------ *)

let report_tree (r : Analyzer.report) =
  Obj [ ("pairs", List (List.map pair r.pair_reports)); ("stats", stats r.stats) ]

let loc_fields prefix (l : Loc.t) =
  [ (prefix ^ "line", Int l.Loc.line); (prefix ^ "col", Int l.Loc.col) ]

let blocking_json (b : Summary.blocking) =
  let e = b.edge in
  Obj
    ([
       ("array", Str e.pair.array_name);
       ("kind", Str (Analyzer.dep_kind_name e.kind));
       ("exact", Bool e.exact);
     ]
     @ (match e.vector with
        | Some v -> [ ("vector", Str (Direction.vector_to_string v)) ]
        | None -> [])
     @ loc_fields "" e.pair.loc1
     @ loc_fields "2" e.pair.loc2
     @
     match b.witness with
     | Some w ->
       let ints a =
         List
           (List.map
              (fun z -> Str (Dda_numeric.Zint.to_string z))
              (Array.to_list a))
       in
       [ ("witness", Obj [ ("iter1", ints w.iter1); ("iter2", ints w.iter2) ]) ]
     | None -> [])

let loop_json (li : Summary.loop_info) =
  Obj
    ([ ("lid", Int li.lid); ("var", Str li.var) ]
     @ loc_fields "" li.loc
     @ [
       ("depth", Int li.depth);
       ("parallel_annot", Bool li.parallel_annot);
       ("verdict", Str (Summary.verdict_name li.verdict));
       ("degraded", Bool li.degraded);
       ("blocking", List (List.map blocking_json li.blocking));
       ("scalar_blockers", List (List.map (fun s -> Str s) li.scalar_blockers));
     ])

let lint_tree ~file (res : Lint.result) =
  let loops = res.summary.Summary.loops and edges = res.summary.Summary.edges in
  let edge_count k =
    Int (List.length (List.filter (fun (e : Classify.edge) -> e.kind = k) edges))
  in
  let verdict_count v =
    Int
      (List.length
         (List.filter (fun (li : Summary.loop_info) -> li.verdict = v) loops))
  in
  Obj
    [
      ("file", Str file);
      ("loops", List (List.map loop_json loops));
      ( "edges",
        Obj
          [
            ("flow", edge_count Analyzer.Flow);
            ("anti", edge_count Analyzer.Anti);
            ("output", edge_count Analyzer.Output);
            ("input", edge_count Analyzer.Input);
          ] );
      ( "verdicts",
        Obj
          [
            ("doall", verdict_count Summary.Doall);
            ("vectorizable", verdict_count Summary.Vectorizable);
            ("reduction", verdict_count Summary.Reduction);
            ("serial", verdict_count Summary.Serial);
          ] );
      ("findings", List (List.map Dda_check.Verify.diagnostic_json res.findings));
      ("errors", Int res.errors);
      ("warnings", Int res.warnings);
    ]

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let around s =
    let start = max 0 (i - 40) in
    String.sub s start (min 80 (String.length s - start))
  in
  Printf.sprintf "byte %d: direct ...%s... vs tree ...%s..." i (around a) (around b)

(* [None] when the direct rendering equals the tree's, compact and
   indented; else where they part. *)
let mismatch ~what ~direct ~tree =
  let pp_s j = Format.asprintf "%a" pp j in
  let check form a b =
    if String.equal a b then None
    else Some (Printf.sprintf "%s (%s): %s" what form (first_difference a b))
  in
  match check "compact" (to_string direct) (to_string tree) with
  | Some _ as m -> m
  | None -> check "indented" (pp_s direct) (pp_s tree)

let render_mismatch ~file (res : Lint.result) =
  match report res.report with
  | Obj [ ("pairs", Raw _); ("stats", _) ] as direct -> (
      match mismatch ~what:"report" ~direct ~tree:(report_tree res.report) with
      | Some _ as m -> m
      | None ->
        mismatch ~what:"lint" ~direct:(Lint.to_json ~file res)
          ~tree:(lint_tree ~file res))
  | _ -> Some "report: not Obj [pairs = Raw _; stats]"

let check_renders ~file res =
  match render_mismatch ~file res with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Fuzzed programs and PERFECT                                         *)
(* ------------------------------------------------------------------ *)

let starved =
  {
    Analyzer.default_config with
    Analyzer.limits = { Budget.default_limits with Budget.max_steps = Some 1 };
  }

let prop_fuzzed_renders_match =
  QCheck.Test.make ~name:"direct writers equal the tree renderers on fuzzed programs"
    ~count:300
    (QCheck.make
       ~print:(fun (p, s, i, starve) ->
         Printf.sprintf "(%s, seed=%d, index=%d, starved=%b)\n%s" (Fuzz.profile_name p)
           s i starve (Fuzz.program p ~seed:s ~index:i))
       QCheck.Gen.(
         quad (oneofl [ Fuzz.Mixed; Fuzz.Small ]) (int_bound 100_000) (int_bound 5_000)
           bool))
    (fun (profile, seed, index, starve) ->
       let config = if starve then starved else Analyzer.default_config in
       let prog = Parser.parse_program (Fuzz.program profile ~seed ~index) in
       match render_mismatch ~file:"fuzz.dd" (Lint.run ~config prog) with
       | None -> true
       | Some msg -> QCheck.Test.fail_report msg)

let test_perfect () =
  List.iter
    (fun (spec : Programs.spec) ->
       let res = Lint.run (Parser.parse_program (Programs.source spec)) in
       check_renders ~file:spec.name res)
    Programs.all

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let lint ?(config = Analyzer.default_config) text =
  Lint.run ~config (Parser.parse_program text)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Identifiers cannot spell these, so the names are swapped in after
   the analysis: every string the writers emit passes through the
   escaper. *)
let weird = "q\"b\\s\nn\001c"

let rename (res : Lint.result) =
  let pair (p : Analyzer.pair_report) = { p with array_name = weird } in
  let blocking (b : Summary.blocking) =
    { b with edge = { b.edge with pair = pair b.edge.pair } }
  in
  {
    res with
    report =
      { res.report with pair_reports = List.map pair res.report.pair_reports };
    summary =
      {
        res.summary with
        loops =
          List.map
            (fun (li : Summary.loop_info) ->
               {
                 li with
                 var = weird;
                 blocking = List.map blocking li.blocking;
                 scalar_blockers = List.map (fun _ -> weird) li.scalar_blockers;
               })
            res.summary.loops;
      };
    findings =
      List.map
        (fun (d : Dda_check.Verify.diagnostic) ->
           { d with array_name = Some weird; message = weird })
        res.findings;
  }

let test_escaping () =
  let res =
    rename
      (lint
         "s = 0\nparallel for i = 2 to 10 do\n  a[i] = a[i - 1] + s\n  s = s + 1\nend\n")
  in
  check_renders ~file:weird res;
  let out = to_string (Lint.to_json ~file:weird res) in
  Alcotest.(check bool) "escaped as \\\" \\\\ \\n \\u0001" true
    (contains {|"q\"b\\s\nn\u0001c"|} out)

(* A distance of 2^63 - 2 and a witness iteration of 2^63 - 1: past
   the native int range, both render in their [Str] form. *)
let test_beyond_native () =
  let text =
    "for i = 1 to 4611686018427387903 * 4 do\n\
    \  a[i + 4611686018427387903 * 2] = a[i] + 1\n\
     end\n"
  in
  List.iter
    (fun run_pipeline ->
       let res = lint ~config:{ Analyzer.default_config with run_pipeline } text in
       check_renders ~file:"big.dd" res;
       let pairs = to_string (report res.report) in
       let summary = to_string (Lint.to_json ~file:"big.dd" res) in
       Alcotest.(check bool) "distance as a string" true
         (contains {|"distance":["9223372036854775806"]|} pairs);
       Alcotest.(check bool) "witness coordinate as a string" true
         (contains {|"iter2":["9223372036854775807"]|} summary))
    [ true; false ]

let test_empty_lists () =
  let res = lint "for i = 1 to 10 do\n  a[i] = b[i] + 1\nend\n" in
  check_renders ~file:"doall.dd" res;
  Alcotest.(check bool) "empty blocking and scalar_blockers" true
    (contains {|"blocking":[],"scalar_blockers":[]|}
       (to_string (Lint.to_json ~file:"doall.dd" res)))

let test_racy_findings () =
  let res = lint "parallel for i = 1 to 10 do\n  a[i] = a[i - 1] + 1\nend\n" in
  Alcotest.(check int) "one race" 1 res.errors;
  check_renders ~file:"race.dd" res

(* The render buffer is kept per domain: a writer that renders from
   inside a writer (here through [Json_out.report]) gets a buffer of
   its own, a writer that raises leaves nothing behind, and a call
   after one too large to keep starts empty. *)
let test_render_buffer () =
  let res = lint "for i = 1 to 10 do\n  a[i] = a[i - 1] + 1\nend\n" in
  let report_text = to_string (report res.report) in
  let outer =
    Json_out.render (fun buf ->
        Buffer.add_string buf "[1,";
        Json_out.write buf (report res.report);
        Buffer.add_char buf ']')
  in
  Alcotest.(check string) "nested rendering" ("[1," ^ report_text ^ "]") outer;
  (match
     Json_out.render (fun buf ->
         Buffer.add_string buf "partial";
         failwith "writer")
   with
   | _ -> Alcotest.fail "the writer's exception was lost"
   | exception Failure _ -> ());
  Alcotest.(check string) "after a raise" "ok"
    (Json_out.render (fun buf -> Buffer.add_string buf "ok"));
  let big = String.make (1 lsl 20) 'x' in
  Alcotest.(check bool) "a rendering past the kept size" true
    (String.equal big (Json_out.render (fun buf -> Buffer.add_string buf big)));
  Alcotest.(check string) "after a large one" "small"
    (Json_out.render (fun buf -> Buffer.add_string buf "small"))

let () =
  Alcotest.run "render"
    [
      ( "fixtures",
        [
          Alcotest.test_case "names that need escaping" `Quick test_escaping;
          Alcotest.test_case "numbers beyond native int" `Quick test_beyond_native;
          Alcotest.test_case "empty blocking lists" `Quick test_empty_lists;
          Alcotest.test_case "annotated racy loop" `Quick test_racy_findings;
          Alcotest.test_case "PERFECT programs" `Quick test_perfect;
          Alcotest.test_case "render buffer reuse and re-entry" `Quick
            test_render_buffer;
        ] );
      ("fuzzed", [ QCheck_alcotest.to_alcotest prop_fuzzed_renders_match ]);
    ]
