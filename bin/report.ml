(* ddtest report: the paper's evaluation, recomputed on the synthetic
   PERFECT Club. Every table here is a count, a pure function of the
   analysis, so the output can be diffed against a committed baseline
   (doc/paper_tables.expected). The timed figures — Table 6 and the
   per-test costs — are bench/main.exe's. A table is data: columns over
   per-row count vectors, printed by one text and one JSON printer. *)

open Dda_lang
open Dda_core

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

type cell = Count of int | Percent of float

type column = {
  head : string;  (* text header *)
  key : string;  (* JSON member *)
  cell : int array -> cell;  (* from the row's counts *)
}

type table = {
  title : string;
  key : string;  (* JSON member; the paper row is [key ^ "_paper"] *)
  label : string;  (* header of the row-name column *)
  columns : column list;
  rows : (string * int array) list;  (* a TOTAL row, the sum, follows *)
  paper : (string * int) list;
      (* published totals, in column order, under their own JSON keys *)
}

let table ?(label = "prog") ?(paper = []) title key columns rows =
  { title; key; label; columns; rows; paper }

let count head key i = { head; key; cell = (fun a -> Count a.(i)) }

let pct n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d

(* Count [num] as a percentage of count [den]. *)
let percent head key ~num ~den =
  { head; key; cell = (fun a -> Percent (pct a.(num) a.(den))) }

let add_counts = Array.map2 ( + )

let with_total = function
  | [] -> []
  | (_, first) :: rest as rows ->
    rows @ [ ("TOTAL", List.fold_left (fun acc (_, a) -> add_counts acc a) first rest) ]

(* A column is right-aligned, one wider than its header and at least 7. *)
let width c = max 7 (String.length c.head + 1)

let print_text t =
  let rows = with_total t.rows in
  let w =
    List.fold_left
      (fun w (name, _) -> max w (String.length name))
      (max 7 (String.length t.label))
      rows
  in
  let line name cells =
    Format.printf "%-*s%s@." w name (String.concat "" (List.map (( ^ ) " ") cells))
  in
  Format.printf "@.-- %s --@." t.title;
  line t.label (List.map (fun c -> Printf.sprintf "%*s" (width c) c.head) t.columns);
  List.iter
    (fun (name, counts) ->
       line name
         (List.map
            (fun c ->
               match c.cell counts with
               | Count n -> Printf.sprintf "%*d" (width c) n
               | Percent p -> Printf.sprintf "%*.1f%%" (width c - 1) p)
            t.columns))
    rows;
  if t.paper <> [] then
    line "paper" (List.map2 (fun c (_, v) -> Printf.sprintf "%*d" (width c) v) t.columns t.paper)

(* A percentage is written as the text prints it, to one decimal. *)
let json_cell = function
  | Count n -> Json_out.Int n
  | Percent p -> Json_out.Float (float_of_string (Printf.sprintf "%.1f" p))

let json (t : table) =
  let row (name, counts) =
    (name, Json_out.Obj (List.map (fun (c : column) -> (c.key, json_cell (c.cell counts))) t.columns))
  in
  (t.key, Json_out.Obj (List.map row (with_total t.rows)))
  ::
  (if t.paper = [] then []
   else [ (t.key ^ "_paper", Json_out.Obj (List.map (fun (k, v) -> (k, Json_out.Int v)) t.paper)) ])

(* A measured-vs-published comparison of two totals and their ratio:
   rows of (text label, measured JSON key, paper JSON key, measured,
   paper). *)
type comparison = {
  c_title : string;
  c_key : string;
  c_rows : (string * string * string * int * int) list;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let print_comparison c =
  Format.printf "@.-- %s --@.%-28s %9s %9s@." c.c_title "" "measured" "paper";
  List.iter (fun (label, _, _, m, p) -> Format.printf "%-28s %9d %9d@." label m p) c.c_rows;
  match c.c_rows with
  | [ (_, _, _, m1, p1); (_, _, _, m2, p2) ] ->
    Format.printf "%-28s %8.1fx %8.1fx@." "reduction" (ratio m1 m2) (ratio p1 p2)
  | _ -> ()

let comparison_json c =
  ( c.c_key,
    Json_out.Obj
      (List.map (fun (_, k, _, m, _) -> (k, Json_out.Int m)) c.c_rows
       @ List.map (fun (_, _, k, _, p) -> (k, Json_out.Int p)) c.c_rows) )

(* ------------------------------------------------------------------ *)
(* The evaluation                                                      *)
(* ------------------------------------------------------------------ *)

(* The plain cascade: no memoization, no direction vectors, no symbolic
   terms (Table 1). *)
let cfg_plain =
  {
    Analyzer.default_config with
    Analyzer.directions = false;
    memo = Analyzer.Memo_off;
    symbolic = false;
  }

let cfg_memo memo = { cfg_plain with Analyzer.memo }

(* The direction hierarchy under the improved memo scheme (Tables 4, 5
   and, with symbolic terms, 7). *)
let cfg_dirs ?(symbolic = false) prune =
  { Analyzer.default_config with Analyzer.prune; symbolic; memo = Analyzer.Memo_improved }

let by_test (s : Analyzer.stats) = s.dir_counts.Direction.by_test
let total counts = Array.fold_left ( + ) 0 counts

(* The four exact tests' counts, from index [i] of the row on. *)
let stage_columns i =
  [ count "svpc" "svpc" i; count "acyclic" "acyclic" (i + 1);
    count "loop-res" "loop_residue" (i + 2); count "fourier" "fourier" (i + 3) ]

let direction_table title key results =
  table title key
    (stage_columns 0 @ [ count "total" "total" 4 ])
    (List.map
       (fun (name, (r : Analyzer.report)) ->
          let c = by_test r.stats in
          (name, Array.append c [| total c |]))
       results)

(* Section 7: the exact verdicts and vectors against the GCD + Banerjee
   baseline, over every non-self pair whose problem builds. Constant-
   subscript pairs reach neither system's tests (the paper's "array
   constants" column) and are left out. Counts: compared, independent
   (exact, baseline), missed, vectors (exact, baseline). *)
let accuracy pairs (report : Analyzer.report) =
  List.fold_left2
    (fun acc (s1, s2) (r : Analyzer.pair_report) ->
       match (r.self_pair, r.outcome) with
       | true, _ | _, Analyzer.Constant _ -> acc
       | false, outcome -> (
           match Build_problem.build s1 s2 with
           | None -> acc
           | Some p ->
             let exact, vectors =
               match outcome with
               | Analyzer.Gcd_independent -> (true, 0)
               | Analyzer.Tested t -> (not t.dependent, List.length t.directions)
               | Analyzer.Assumed_dependent | Analyzer.Constant _ -> (false, 0)
             in
             let module B = Dda_baselines.Banerjee in
             let base = B.combined p = B.Independent in
             let b = Bool.to_int in
             add_counts acc
               [| 1; b exact; b base; b exact - b base; vectors;
                  Option.fold ~none:0 ~some:List.length (B.directions p) |]))
    (Array.make 6 0) pairs report.pair_reports

let unresolved (r : Analyzer.report) =
  List.length
    (List.filter
       (fun (p : Analyzer.pair_report) ->
          match p.outcome with Analyzer.Tested { unknown; _ } -> unknown | _ -> false)
       r.pair_reports)

let print format =
  let programs =
    List.map
      (fun (spec : Dda_perfect.Programs.spec) ->
         (spec.name, Parser.parse_program (Dda_perfect.Programs.source spec)))
      Dda_perfect.Programs.all
  in
  let analyze_all config =
    List.map (fun (name, prog) -> (name, Analyzer.analyze ~config prog)) programs
  in
  let plain = analyze_all cfg_plain in
  let simple = analyze_all (cfg_memo Analyzer.Memo_simple) in
  let memoized = analyze_all (cfg_memo Analyzer.Memo_improved) in
  let unpruned = analyze_all (cfg_dirs Direction.no_pruning) in
  let pruned = analyze_all (cfg_dirs Direction.full_pruning) in
  (* Table 7 and section 7 read one front per program. *)
  let symbolic =
    let config = cfg_dirs ~symbolic:true Direction.full_pruning in
    List.map
      (fun (name, prog) ->
         let { Analyzer.pairs; _ } = Analyzer.front_end config prog in
         (name, pairs, Analyzer.analyze_sites ~config pairs))
      programs
  in
  let stats results = List.map (fun (name, (r : Analyzer.report)) -> (name, r.stats)) results in
  let sum f results = List.fold_left (fun acc (_, s) -> acc + f s) 0 (stats results) in
  let executed (s : Analyzer.stats) = total s.plain_by_test in
  let stages =
    table "stage decisions (paper Table 1)" "stage_decisions"
      (count "constant" "constant" 0 :: count "gcd" "gcd" 1 :: stage_columns 2)
      (List.map
         (fun (name, (s : Analyzer.stats)) ->
            (name, Array.append [| s.constant_cases; s.gcd_independent |] s.plain_by_test))
         (stats plain))
      ~paper:
        [ ("constant", 11_859); ("gcd", 384); ("svpc", 5_176); ("acyclic", 323);
          ("loop-residue", 6); ("fourier", 174) ]
  in
  let comparisons =
    [
      {
        c_title = "memoization (paper Table 3)";
        c_key = "memoization";
        c_rows =
          [ ("executed tests, no memo", "executed_no_memo", "paper_no_memo",
             sum executed plain, 5_679);
            ("executed tests, memoized", "executed_memoized", "paper_memoized",
             sum executed memoized, 332) ];
      };
      {
        c_title = "direction-vector pruning (paper Tables 4 -> 5)";
        c_key = "direction_pruning";
        c_rows =
          [ ("tests, no pruning", "no_pruning", "paper_no_pruning",
             sum (fun s -> total (by_test s)) unpruned, 12_500);
            ("tests, full pruning", "full_pruning", "paper_full_pruning",
             sum (fun s -> total (by_test s)) pruned, 900) ];
      };
    ]
  in
  let tables =
    [
      table "memoization effectiveness, % of cases that are unique (paper Table 2)"
        "memo_unique"
        [ count "gcd-cases" "gcd_cases" 0;
          percent "simple%" "gcd_simple_pct" ~num:1 ~den:0;
          percent "improved%" "gcd_improved_pct" ~num:3 ~den:2;
          count "full-cases" "full_cases" 4;
          percent "simple%" "full_simple_pct" ~num:5 ~den:4;
          percent "improved%" "full_improved_pct" ~num:7 ~den:6 ]
        (List.map2
           (fun (name, (s : Analyzer.stats)) (_, (i : Analyzer.stats)) ->
              ( name,
                [| s.memo_lookups_nobounds; s.memo_unique_nobounds;
                   i.memo_lookups_nobounds; i.memo_unique_nobounds;
                   s.memo_lookups_full; s.memo_unique_full;
                   i.memo_lookups_full; i.memo_unique_full |] ))
           (stats simple) (stats memoized));
      table "tests run with memoization, unique cases only (paper Table 3)" "memo_tests"
        (count "cases" "cases" 0 :: stage_columns 1)
        (List.map
           (fun (name, (s : Analyzer.stats)) ->
              (name, Array.append [| s.memo_lookups_full |] s.plain_by_test))
           (stats memoized));
      direction_table "direction-vector tests, no pruning (paper Table 4)"
        "direction_tests_no_pruning" unpruned;
      direction_table "direction-vector tests, full pruning (paper Table 5)"
        "direction_tests_full_pruning" pruned;
      direction_table "direction-vector tests with symbolic terms (paper Table 7)"
        "direction_tests_symbolic"
        (List.map (fun (name, _, r) -> (name, r)) symbolic);
      table "accuracy vs the GCD + Banerjee baseline, Table 7 configuration (paper section 7)"
        "accuracy"
        [ count "pairs" "pairs" 0; count "indep" "independent" 1;
          count "base-indep" "baseline_independent" 2; count "missed" "missed" 3;
          percent "missed%" "missed_pct" ~num:3 ~den:1; count "vectors" "vectors" 4;
          count "base-vectors" "baseline_vectors" 5 ]
        (List.map (fun (name, pairs, r) -> (name, accuracy pairs r)) symbolic);
      table ~label:"test"
        "independent answers per test, Table 5 configuration (paper section 7)"
        "independent_returns"
        [ count "calls" "calls" 0; count "indep" "independent" 1;
          percent "rate%" "rate_pct" ~num:1 ~den:0 ]
        (List.mapi
           (fun i name ->
              ( name,
                [| sum (fun s -> (by_test s).(i)) pruned;
                   sum (fun s -> s.dir_counts.Direction.indep_by_test.(i)) pruned |] ))
           [ "svpc"; "acyclic"; "loop-res"; "fourier" ]);
      table "exactness: implicit branch-and-bound (paper section 6), unresolved verdicts"
        "exactness"
        [ count "implicit-bb" "implicit_bb" 0; count "unresolved" "unresolved" 1 ]
        (List.map
           (fun (name, _, sym) ->
              ( name,
                [| (List.assoc name pruned).Analyzer.stats.implicit_bb_cases;
                   unresolved (List.assoc name plain) + unresolved sym |] ))
           symbolic);
    ]
  in
  match format with
  | `Text ->
    Format.printf
      "ddtest report: the paper's evaluation tables on the synthetic PERFECT \
       Club@.(counts are deterministic; the paper column is the published \
       total)@.";
    print_text stages;
    List.iter print_comparison comparisons;
    List.iter print_text tables
  | `Json ->
    Format.printf "%a@." Json_out.pp
      (Json_out.Obj
         (json stages @ List.map comparison_json comparisons @ List.concat_map json tables))
