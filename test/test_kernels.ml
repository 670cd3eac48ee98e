(* Integration tests on the curated kernel library: the analyzer must
   classify every loop of every classic kernel exactly as the textbook
   says — no false serialization (lost parallelism) and no false
   parallelism (miscompilation). Run under several configurations,
   since all of them claim exactness. *)

open Dda_lang
open Dda_core
open Dda_perfect

let configs =
  [
    ("default", Analyzer.default_config);
    ( "no pruning, simple memo",
      {
        Analyzer.default_config with
        Analyzer.prune = Direction.no_pruning;
        memo = Analyzer.Memo_simple;
      } );
    ( "full pruning, symmetric memo",
      { Analyzer.default_config with Analyzer.memo = Analyzer.Memo_symmetric } );
    ( "fm tightening",
      { Analyzer.default_config with Analyzer.fm_tighten = true } );
  ]

(* Map loop ids back to variable names in first-occurrence order. *)
let loop_names sites = Affine.loop_table sites

(* Both checks below read one lint result per kernel and configuration:
   the [Lint.run] is forced by whichever case runs first. *)
let lint_run config (k : Kernels.kernel) =
  lazy (Dda_analysis.Lint.run ~config (Parser.parse_program k.source))

let check_kernel config_name res (k : Kernels.kernel) () =
  let result =
    List.map
      (fun (li : Dda_analysis.Summary.loop_info) ->
         (li.var, li.verdict = Dda_analysis.Summary.Doall))
      (Lazy.force res).Dda_analysis.Lint.summary.Dda_analysis.Summary.loops
  in
  List.iter
    (fun v ->
       match List.assoc_opt v result with
       | Some p ->
         Alcotest.(check bool)
           (Printf.sprintf "[%s] %s: loop %s parallel" config_name k.name v)
           true p
       | None -> Alcotest.failf "loop %s not found in %s" v k.name)
    k.doall_loops;
  List.iter
    (fun v ->
       match List.assoc_opt v result with
       | Some p ->
         Alcotest.(check bool)
           (Printf.sprintf "[%s] %s: loop %s serial" config_name k.name v)
           false p
       | None -> Alcotest.failf "loop %s not found in %s" v k.name)
    k.serial_loops;
  Alcotest.(check int)
    (Printf.sprintf "[%s] %s: all loops accounted for" config_name k.name)
    (List.length result)
    (List.length k.doall_loops + List.length k.serial_loops)

(* The linter's headline contract: its DOALL set is exactly the
   textbook parallel set, kernel by kernel. Reduction and vectorizable
   verdicts are refinements of "not DOALL", so they must land on the
   serial side — lost parallelism and false parallelism both fail. *)
let check_lint_doall config_name res (k : Kernels.kernel) () =
  let res = Lazy.force res in
  let names = loop_names res.Dda_analysis.Lint.sites in
  let doall =
    List.filter_map
      (fun (lid, is_doall) ->
         if is_doall then
           Some (Option.value (List.assoc_opt lid names) ~default:"?")
         else None)
      (Dda_analysis.Summary.doall_loops res.Dda_analysis.Lint.summary)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    (Printf.sprintf "[%s] %s: lint DOALL set = textbook parallel set"
       config_name k.name)
    (List.sort String.compare k.doall_loops)
    doall;
  (* Nothing on exact kernels is degraded, so no verdict leans on
     conservative evidence. *)
  List.iter
    (fun (li : Dda_analysis.Summary.loop_info) ->
       if li.verdict = Dda_analysis.Summary.Doall then
         Alcotest.(check bool)
           (Printf.sprintf "[%s] %s: DOALL loop %s not degraded" config_name
              k.name li.var)
           false li.degraded)
    res.Dda_analysis.Lint.summary.Dda_analysis.Summary.loops

let test_kernel_sources_wellformed () =
  List.iter
    (fun (k : Kernels.kernel) ->
       match Parser.parse_program k.source with
       | prog ->
         Alcotest.(check int)
           (k.name ^ " semantically clean")
           0
           (List.length (Semant.check prog))
       | exception Parser.Error (msg, loc) ->
         Alcotest.failf "%s: parse error %s at %s" k.name msg (Loc.to_string loc))
    Kernels.all

let test_find () =
  Alcotest.(check bool) "find hits" true (Kernels.find "matmul" <> None);
  Alcotest.(check bool) "find misses" true (Kernels.find "nope" = None)

(* The kernels also serve as oracle fodder: their traces must agree
   with the analyzer (bounded variants to keep traces small). *)
let test_kernels_against_oracle () =
  let shrink src =
    (* Shrink all constant loop bounds to at most 8 so the interpreter
       trace stays tiny. *)
    let prog = Parser.parse_program src in
    let rec shrink_expr (e : Ast.expr) =
      match e.desc with
      | Ast.Int n when n > 8 -> { e with desc = Ast.Int 8 }
      | Ast.Int _ | Ast.Var _ -> e
      | Ast.Neg a -> { e with desc = Ast.Neg (shrink_expr a) }
      | Ast.Bin (op, a, b) -> { e with desc = Ast.Bin (op, shrink_expr a, shrink_expr b) }
      | Ast.Aref (n, subs) -> { e with desc = Ast.Aref (n, List.map shrink_expr subs) }
    in
    let rec shrink_stmt (s : Ast.stmt) =
      match s.sdesc with
      | Ast.For f ->
        {
          s with
          sdesc =
            Ast.For
              {
                f with
                lo = shrink_expr f.lo;
                hi = shrink_expr f.hi;
                body = List.map shrink_stmt f.body;
              };
        }
      | _ -> s
    in
    List.map shrink_stmt prog
  in
  let exact =
    {
      Analyzer.default_config with
      Analyzer.prune = Direction.no_pruning;
      memo = Analyzer.Memo_simple;
      run_pipeline = false;
    }
  in
  List.iter
    (fun (k : Kernels.kernel) ->
       if k.name <> "nonlinear" then begin
         let prog = shrink k.source in
         let report = Analyzer.analyze ~config:exact prog in
         (* Symbolic bounds read as 6 so the loops actually run. *)
         let inputs = [ ("n", 6) ] in
         List.iter
           (fun (r : Analyzer.pair_report) ->
              let obs = Trace.observe ~inputs prog ~site1:r.loc1 ~site2:r.loc2 in
              match r.outcome with
              | Analyzer.Tested t ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s/%s verdict matches trace" k.name
                     (Loc.to_string r.loc1) (Loc.to_string r.loc2))
                  obs.dependent t.dependent
              | Analyzer.Constant d ->
                Alcotest.(check bool) (k.name ^ ": constant matches") obs.dependent d
              | Analyzer.Gcd_independent ->
                Alcotest.(check bool) (k.name ^ ": gcd indep matches") false
                  obs.dependent
              | Analyzer.Assumed_dependent -> ())
           report.pair_reports
       end)
    Kernels.all

let () =
  let runs =
    List.concat_map
      (fun (cname, config) ->
         List.map (fun k -> (cname, lint_run config k, k)) Kernels.all)
      configs
  in
  let cases check =
    List.map
      (fun (cname, res, (k : Kernels.kernel)) ->
         Alcotest.test_case
           (Printf.sprintf "%s [%s]" k.name cname)
           `Quick (check cname res k))
      runs
  in
  Alcotest.run "kernels"
    [
      ( "library",
        [
          Alcotest.test_case "well-formed" `Quick test_kernel_sources_wellformed;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ("classification", cases check_kernel);
      ("lint doall", cases check_lint_doall);
      ( "oracle",
        [ Alcotest.test_case "verdicts match traces" `Quick test_kernels_against_oracle ] );
    ]
