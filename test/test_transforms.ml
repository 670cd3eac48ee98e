(* Loop-transformation legality, the dependence-graph export, and the
   one edge model they read, against the derivations it replaced.

   The heavyweight check: on random affine nests, whenever the analyzer
   declares an interchange or reversal legal, actually performing the
   transformation and re-running the program must leave the final
   memory identical. A false "legal" here is a miscompilation. *)

open Dda_lang
open Dda_core
open Dda_analysis

let parse = Parser.parse_program

let config =
  {
    Analyzer.default_config with
    Analyzer.prune = Direction.no_pruning;
    memo = Analyzer.Memo_simple;
    run_pipeline = false;
  }

let analyze_with_sites src_or_prog =
  let prog = src_or_prog in
  let sites = Affine.extract prog in
  let report = Analyzer.analyze ~config prog in
  (prog, sites, report)

(* Loop ids in source order: extraction numbers them pre-order. *)
let loop_ids sites =
  let ids = ref [] in
  List.iter
    (fun (s : Affine.site) ->
       List.iter
         (fun (c : Affine.loop_ctx) ->
            if not (List.mem c.Affine.lid !ids) then ids := c.Affine.lid :: !ids)
         s.loops)
    sites;
  List.sort compare !ids

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_matmul_fully_permutable () =
  let _, sites, report =
    analyze_with_sites
      (parse
         "for i = 1 to 16 do\n\
         \  for j = 1 to 16 do\n\
         \    for k = 1 to 16 do\n\
         \      cc[i][j] = cc[i][j] + aa[i][k] * bb[k][j]\n\
         \    end\n\
         \  end\n\
          end")
  in
  match loop_ids sites with
  | [ a; b; c ] ->
    Alcotest.(check int) "all 6 orders legal" 6
      (List.length (Transforms.legal_permutations report [ a; b; c ]));
    Alcotest.(check bool) "i-j interchange" true
      (Transforms.interchange_legal report ~lid_a:a ~lid_b:b);
    Alcotest.(check bool) "j-k interchange" true
      (Transforms.interchange_legal report ~lid_a:b ~lid_b:c)
  | _ -> Alcotest.fail "expected 3 loops"

let test_skewed_stencil_interchange_illegal () =
  (* Dependence (<, >): the textbook interchange-illegal case. *)
  let _, sites, report =
    analyze_with_sites
      (parse
         "for i = 2 to 16 do\n\
         \  for j = 2 to 16 do\n\
         \    sk[i][j] = sk[i - 1][j + 1] + 1\n\
         \  end\n\
          end")
  in
  match loop_ids sites with
  | [ a; b ] ->
    Alcotest.(check bool) "interchange illegal" false
      (Transforms.interchange_legal report ~lid_a:a ~lid_b:b);
    Alcotest.(check int) "only identity legal" 1
      (List.length (Transforms.legal_permutations report [ a; b ]))
  | _ -> Alcotest.fail "expected 2 loops"

let test_wavefront_interchange_legal () =
  (* Dependences (<,=) and (=,<): interchange permutes them into each
     other; both orders legal, but neither loop is reversible. *)
  let _, sites, report =
    analyze_with_sites
      (parse
         "for i = 1 to 16 do\n\
         \  for j = 1 to 16 do\n\
         \    wf[i][j] = wf[i - 1][j] + wf[i][j - 1]\n\
         \  end\n\
          end")
  in
  match loop_ids sites with
  | [ a; b ] ->
    Alcotest.(check bool) "interchange legal" true
      (Transforms.interchange_legal report ~lid_a:a ~lid_b:b);
    Alcotest.(check bool) "outer not reversible" false
      (Transforms.reversal_legal report ~lid:a);
    Alcotest.(check bool) "inner not reversible" false
      (Transforms.reversal_legal report ~lid:b)
  | _ -> Alcotest.fail "expected 2 loops"

let test_reversal () =
  let _, sites, report =
    analyze_with_sites (parse "for i = 2 to 99 do\n  fr[i] = od[i - 1] + od[i + 1]\nend")
  in
  (match loop_ids sites with
   | [ a ] ->
     Alcotest.(check bool) "jacobi reversible" true (Transforms.reversal_legal report ~lid:a)
   | _ -> Alcotest.fail "expected 1 loop");
  let _, sites2, report2 =
    analyze_with_sites (parse "for i = 2 to 99 do\n  s[i] = s[i - 1] + 1\nend")
  in
  match loop_ids sites2 with
  | [ a ] ->
    Alcotest.(check bool) "recurrence not reversible" false
      (Transforms.reversal_legal report2 ~lid:a)
  | _ -> Alcotest.fail "expected 1 loop"

let test_fully_permutable () =
  let _, sites, report =
    analyze_with_sites
      (parse
         "for i = 1 to 16 do\n\
         \  for j = 1 to 16 do\n\
         \    for k = 1 to 16 do\n\
         \      cc[i][j] = cc[i][j] + aa[i][k] * bb[k][j]\n\
         \    end\n\
         \  end\n\
          end")
  in
  Alcotest.(check bool) "matmul band tilable" true
    (Transforms.fully_permutable report (loop_ids sites));
  let _, sites2, report2 =
    analyze_with_sites
      (parse
         "for i = 2 to 16 do\n  for j = 2 to 16 do\n    sk[i][j] = sk[i - 1][j + 1] + 1\n  end\nend")
  in
  Alcotest.(check bool) "skewed stencil not tilable" false
    (Transforms.fully_permutable report2 (loop_ids sites2));
  (* Wavefront (<,=),(=,<): all components non-negative: tilable even
     though neither loop is parallel. *)
  let _, sites3, report3 =
    analyze_with_sites
      (parse
         "for i = 1 to 16 do\n  for j = 1 to 16 do\n    wf[i][j] = wf[i - 1][j] + wf[i][j - 1]\n  end\nend")
  in
  Alcotest.(check bool) "wavefront tilable" true
    (Transforms.fully_permutable report3 (loop_ids sites3))

let prop_fully_permutable_implies_all_legal =
  QCheck.Test.make
    ~name:"fully permutable implies every permutation is legal" ~count:200
    Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let sites = Affine.extract prog in
       let report = Analyzer.analyze ~config prog in
       let ids = loop_ids sites in
       let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
       (not (Transforms.fully_permutable report ids))
       || List.length (Transforms.legal_permutations report ids)
          = fact (List.length ids))

let test_conservative_outcomes_block () =
  (* A non-affine pair makes any reordering of its loops illegal. *)
  let _, sites, report =
    analyze_with_sites
      (parse
         "for i = 1 to 8 do\n\
         \  for j = 1 to 8 do\n\
         \    h[i * j] = h[i + j] + 1\n\
         \  end\n\
          end")
  in
  match loop_ids sites with
  | [ a; b ] ->
    Alcotest.(check bool) "interchange blocked" false
      (Transforms.interchange_legal report ~lid_a:a ~lid_b:b)
  | _ -> Alcotest.fail "expected 2 loops"

(* ------------------------------------------------------------------ *)
(* Depgraph                                                            *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_depgraph_dot () =
  let report =
    Analyzer.analyze ~config
      (parse "for i = 1 to 10 do\n  a[i + 1] = a[i] + 3\n  a[i] = 0\nend")
  in
  let dot = Depgraph.to_dot report in
  Alcotest.(check bool) "digraph" true (contains "digraph dependences" dot);
  Alcotest.(check bool) "write node" true (contains "a write @" dot);
  Alcotest.(check bool) "read node" true (contains "a read @" dot);
  Alcotest.(check bool) "flow edge" true (contains "flow (<)" dot);
  Alcotest.(check bool) "output edge" true (contains "output (<)" dot);
  Alcotest.(check bool) "anti edge" true (contains "anti (=)" dot);
  (* Independent pairs draw no edge: a 2-node graph of an independent
     pair has none. *)
  let indep = Analyzer.analyze ~config (parse "for i = 1 to 10 do b[i] = b[i+20] end") in
  Alcotest.(check bool) "no edges when independent" false
    (contains "->" (Depgraph.to_dot indep))

let test_depgraph_conservative_edges () =
  let report =
    Analyzer.analyze ~config (parse "for i = 1 to 8 do\n  h[i * i] = h[i] + 1\nend")
  in
  let dot = Depgraph.to_dot report in
  Alcotest.(check bool) "dashed assumed edge" true
    (contains "assumed (not affine)" dot && contains "style=dashed" dot)

(* ------------------------------------------------------------------ *)
(* One edge model against the derivations it replaced                  *)
(* ------------------------------------------------------------------ *)

(* Before {!Classify.readings}, three clients each turned a pair's
   outcome into oriented dependences. Their derivations are kept here
   unchanged as the oracle. *)
module Oracle = struct
  let flip = function
    | Direction.Dlt -> Direction.Dgt
    | Direction.Dgt -> Direction.Dlt
    | (Direction.Deq | Direction.Dany) as d -> d

  (* Transforms.normalize / pair_vectors *)
  let normalize v =
    let rec lead k =
      if k >= Array.length v then `Eq
      else
        match v.(k) with
        | Direction.Deq -> lead (k + 1)
        | Direction.Dlt -> `Forward
        | Direction.Dgt -> `Backward
        | Direction.Dany -> `Ambiguous
    in
    match lead 0 with
    | `Eq | `Forward -> [ v ]
    | `Backward -> [ Array.map flip v ]
    | `Ambiguous -> [ v; Array.map flip v ]

  let pair_vectors (r : Analyzer.pair_report) =
    let all_star = Array.make r.ncommon Direction.Dany in
    match r.outcome with
    | Analyzer.Constant false | Analyzer.Gcd_independent -> []
    | Analyzer.Constant true | Analyzer.Assumed_dependent -> [ all_star ]
    | Analyzer.Tested t when not t.dependent -> []
    | Analyzer.Tested t ->
      if t.directions = [] then [ all_star ]
      else List.concat_map normalize t.directions

  (* Distribute.edges_of_vector / pair_edges *)
  let edges_of_vector (r : Analyzer.pair_report) pos v =
    let relevant v =
      let rec outer j = j >= pos || (v.(j) <> Direction.Dlt && v.(j) <> Direction.Dgt && outer (j + 1)) in
      outer 0
    in
    let carried v = pos < Array.length v && v.(pos) <> Direction.Deq in
    let one_way src dst v =
      if relevant v then [ (src, dst, carried v) ] else []
    in
    let rec lead k =
      if k >= Array.length v then `Eq
      else
        match v.(k) with
        | Direction.Deq -> lead (k + 1)
        | Direction.Dlt -> `Fwd
        | Direction.Dgt -> `Bwd
        | Direction.Dany -> `Ambiguous
    in
    match lead 0 with
    | `Fwd -> one_way r.stmt1 r.stmt2 v
    | `Bwd -> one_way r.stmt2 r.stmt1 (Array.map flip v)
    | `Eq ->
      if Loc.equal r.stmt1 r.stmt2 then []
      else if Loc.compare r.stmt1 r.stmt2 <= 0 then one_way r.stmt1 r.stmt2 v
      else one_way r.stmt2 r.stmt1 v
    | `Ambiguous ->
      one_way r.stmt1 r.stmt2 v @ one_way r.stmt2 r.stmt1 (Array.map flip v)

  let pair_edges lid (r : Analyzer.pair_report) =
    let rec index_of k = function
      | [] -> None
      | id :: _ when id = lid -> Some k
      | _ :: rest -> index_of (k + 1) rest
    in
    match index_of 0 r.common_ids with
    | None -> []
    | Some pos -> (
        let all_star = Array.make r.ncommon Direction.Dany in
        match r.outcome with
        | Analyzer.Constant false | Analyzer.Gcd_independent -> []
        | Analyzer.Constant true | Analyzer.Assumed_dependent ->
          edges_of_vector r pos all_star
        | Analyzer.Tested t when not t.dependent -> []
        | Analyzer.Tested t ->
          if t.directions = [] then edges_of_vector r pos all_star
          else List.concat_map (edges_of_vector r pos) t.directions)

  (* Depgraph.source_of *)
  let source_of v =
    let rec go k =
      if k >= Array.length v then `First
      else
        match v.(k) with
        | Direction.Deq -> go (k + 1)
        | Direction.Dlt -> `First
        | Direction.Dgt -> `Second
        | Direction.Dany -> `Ambiguous
    in
    go 0
end

(* The first pair of [report] on which the edge model and the oracle
   disagree. Per edge, the readings must be the oracle's orientation
   ([source_of]) zipped with its source-to-sink vectors ([normalize]),
   a conservative edge standing for the all-"*" vector; per pair, the
   legality clients' vector set ([pair_vectors], which reads a
   conservative edge once) and the statement edges at every common
   loop ([pair_edges]) must match. *)
let edge_model_mismatch (report : Analyzer.report) =
  let vec = Direction.vector_to_string in
  let show_readings rs =
    String.concat " "
      (List.map (fun (fwd, v) -> (if fwd then "->" else "<-") ^ vec v) rs)
  in
  let show_stmt_edges es =
    String.concat " "
      (List.map
         (fun (s, d, c) ->
            Printf.sprintf "%s->%s%s" (Loc.to_string s) (Loc.to_string d)
              (if c then "(c)" else ""))
         es)
  in
  List.find_map
    (fun (r : Analyzer.pair_report) ->
       let edges = Classify.pair_edges r in
       let where = Printf.sprintf "%s %s/%s" r.array_name (Loc.to_string r.loc1) (Loc.to_string r.loc2) in
       let reading_mismatch =
         List.find_map
           (fun (e : Classify.edge) ->
              let v =
                Option.value e.vector ~default:(Array.make r.ncommon Direction.Dany)
              in
              let orientation =
                match Oracle.source_of v with
                | `First -> [ true ]
                | `Second -> [ false ]
                | `Ambiguous -> [ true; false ]
              in
              let expected = List.combine orientation (Oracle.normalize v) in
              let got =
                List.map (fun (rd : Classify.reading) -> (rd.forward, rd.dirs)) (Classify.readings e)
              in
              if got = expected then None
              else
                Some
                  (Printf.sprintf "%s: readings of %s: %s, oracle %s" where (vec v)
                     (show_readings got) (show_readings expected)))
           edges
       in
       let vectors_mismatch () =
         let got =
           List.concat_map
             (fun e -> List.map (fun (rd : Classify.reading) -> rd.dirs) (Classify.readings e))
             edges
         in
         let expected = Oracle.pair_vectors r in
         if List.sort_uniq compare got = List.sort_uniq compare expected then None
         else
           Some
             (Printf.sprintf "%s: vectors %s, oracle %s" where
                (String.concat " " (List.map vec got))
                (String.concat " " (List.map vec expected)))
       in
       let stmt_edges_mismatch () =
         List.find_map
           (fun lid ->
              let got =
                List.concat_map (Distribute.stmt_edges ~lid) edges
                |> List.map (fun (d : Distribute.edge) -> (d.src, d.dst, d.carried))
              in
              let expected = Oracle.pair_edges lid r in
              if got = expected then None
              else
                Some
                  (Printf.sprintf "%s: statement edges at L%d: %s, oracle %s" where lid
                     (show_stmt_edges got) (show_stmt_edges expected)))
           r.common_ids
       in
       match reading_mismatch with
       | Some _ as m -> m
       | None -> (
           match vectors_mismatch () with
           | Some _ as m -> m
           | None -> stmt_edges_mismatch ()))
    report.pair_reports

(* Default analysis; a one-step budget (verdicts degraded before any
   vector exists); a three-step budget (degraded vectors keeping
   unrefined "*" cells); and no direction vectors at all (every
   dependent pair conservative). *)
let edge_model_configs =
  [
    ("default", Analyzer.default_config);
    ( "max_steps=1",
      {
        Analyzer.default_config with
        Analyzer.limits = { Budget.default_limits with max_steps = Some 1 };
      } );
    ( "max_steps=3",
      {
        Analyzer.default_config with
        Analyzer.limits = { Budget.default_limits with max_steps = Some 3 };
      } );
    ("directions=false", { Analyzer.default_config with Analyzer.directions = false });
  ]

let edge_model_agrees prog =
  List.for_all
    (fun (name, config) ->
       match edge_model_mismatch (Analyzer.analyze ~config prog) with
       | None -> true
       | Some msg -> QCheck.Test.fail_reportf "%s: %s" name msg)
    edge_model_configs

let arb_edge_model_input =
  let open QCheck in
  let fuzzed profile =
    Gen.map
      (fun (seed, index) ->
         Parser.parse_program (Dda_perfect.Fuzz.program profile ~seed ~index))
      Gen.(pair (int_bound 100_000) (int_bound 5_000))
  in
  make ~print:Pretty.program_to_string
    (Gen.oneof
       [
         Test_support.Gen_ast.gen_affine_nest;
         fuzzed Dda_perfect.Fuzz.Mixed;
         fuzzed Dda_perfect.Fuzz.Small;
       ])

let prop_edge_model_matches_oracle =
  QCheck.Test.make ~name:"edge readings equal the replaced derivations" ~count:200
    arb_edge_model_input edge_model_agrees

(* Which kinds of edge the fixture met: the oracle comparison only
   means something if every reading rule was exercised. *)
let edge_shape (e : Classify.edge) =
  match (e.vector, e.pair.outcome) with
  | None, Analyzer.Tested { degraded = Some _; _ } -> "degraded, no vectors"
  | None, Analyzer.Tested { degraded = None; _ } -> "vector-less dependent"
  | None, (Analyzer.Constant _ | Analyzer.Assumed_dependent | Analyzer.Gcd_independent) ->
    "constant or non-affine"
  | Some v, _ -> (
      let degraded = if e.exact then "" else "degraded " in
      match Direction.lead v with
      | Direction.Dlt -> degraded ^ "leading <"
      | Direction.Dgt -> degraded ^ "leading >"
      | Direction.Dany -> degraded ^ "leading *"
      | Direction.Deq -> degraded ^ "loop-independent")

let test_edge_model_perfect () =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (spec : Dda_perfect.Programs.spec) ->
       let prog = Parser.parse_program (Dda_perfect.Programs.source spec) in
       List.iter
         (fun (name, config) ->
            let report = Analyzer.analyze ~config prog in
            List.iter
              (fun e -> Hashtbl.replace seen (edge_shape e) ())
              (Classify.edges report);
            match edge_model_mismatch report with
            | None -> ()
            | Some msg -> Alcotest.failf "%s, %s: %s" spec.name name msg)
         edge_model_configs)
    Dda_perfect.Programs.all;
  List.iter
    (fun shape -> Alcotest.(check bool) ("met: " ^ shape) true (Hashtbl.mem seen shape))
    [
      "vector-less dependent"; "constant or non-affine"; "leading <"; "leading >";
      "leading *"; "loop-independent"; "degraded, no vectors"; "degraded leading *";
    ]

(* ------------------------------------------------------------------ *)
(* Execution-validated legality                                        *)
(* ------------------------------------------------------------------ *)

(* Swap the two outermost loops of a perfect nest. *)
let interchange_outer (prog : Ast.program) =
  match prog with
  | [ { sdesc = Ast.For f1; sloc } ] -> (
      match f1.body with
      | [ { sdesc = Ast.For f2; sloc = sloc2 } ] ->
        Some
          [
            {
              Ast.sdesc =
                Ast.For
                  {
                    f2 with
                    body = [ { Ast.sdesc = Ast.For { f1 with body = f2.body }; sloc } ];
                  };
              sloc = sloc2;
            };
          ]
      | _ -> None)
  | _ -> None

(* Reverse the outermost loop (bounds swapped, step -1). *)
let reverse_outer (prog : Ast.program) =
  match prog with
  | [ { sdesc = Ast.For f; sloc } ] ->
    Some
      [
        {
          Ast.sdesc = Ast.For { f with lo = f.hi; hi = f.lo; step = Some (Ast.int_ (-1)) };
          sloc;
        };
      ]
  | _ -> None

let final_memory prog = (fst (Interp.final_state prog)).Interp.memory

let prop_legal_interchange_preserves_memory =
  QCheck.Test.make
    ~name:"a legal interchange leaves final memory identical" ~count:200
    Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       match interchange_outer prog with
       | None -> QCheck.assume_fail ()
       | Some swapped ->
         let sites = Affine.extract prog in
         let report = Analyzer.analyze ~config prog in
         (match loop_ids sites with
          | a :: b :: _ ->
            if Transforms.interchange_legal report ~lid_a:a ~lid_b:b then
              final_memory prog = final_memory swapped
            else true
          | _ -> true))

let prop_legal_reversal_preserves_memory =
  QCheck.Test.make ~name:"a legal reversal leaves final memory identical"
    ~count:200 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       match reverse_outer prog with
       | None -> QCheck.assume_fail ()
       | Some reversed ->
         let sites = Affine.extract prog in
         let report = Analyzer.analyze ~config prog in
         (match loop_ids sites with
          | a :: _ ->
            if Transforms.reversal_legal report ~lid:a then
              final_memory prog = final_memory reversed
            else true
          | _ -> true))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "transforms"
    [
      ( "legality",
        [
          Alcotest.test_case "matmul fully permutable" `Quick test_matmul_fully_permutable;
          Alcotest.test_case "skewed stencil illegal" `Quick
            test_skewed_stencil_interchange_illegal;
          Alcotest.test_case "wavefront legal" `Quick test_wavefront_interchange_legal;
          Alcotest.test_case "reversal" `Quick test_reversal;
          Alcotest.test_case "conservative outcomes block" `Quick
            test_conservative_outcomes_block;
          Alcotest.test_case "fully permutable" `Quick test_fully_permutable;
        ] );
      ( "depgraph",
        [
          Alcotest.test_case "dot output" `Quick test_depgraph_dot;
          Alcotest.test_case "conservative edges" `Quick test_depgraph_conservative_edges;
        ] );
      ( "edge-model",
        [
          Alcotest.test_case "PERFECT programs match the oracle" `Quick
            test_edge_model_perfect;
          qt prop_edge_model_matches_oracle;
        ] );
      ( "execution-validated",
        [
          qt prop_legal_interchange_preserves_memory;
          qt prop_legal_reversal_preserves_memory;
          qt prop_fully_permutable_implies_all_legal;
        ] );
    ]
