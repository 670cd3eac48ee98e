(* The parallelism linter against its two oracles: every DOALL verdict
   must agree with one execution (the execution oracle — no two
   iterations of one execution of the loop touch an array cell with one
   of them writing, and none reads a scalar the loop writes before
   writing it), and every injected [parallel] annotation must be
   answered exactly as the evidence warrants — a race error when the
   blocking dependence is exact, a warning when only conservative or
   degraded evidence blocks it. Plus the soundness direction itself:
   starving the budget may only shrink the DOALL set, never grow it. *)

open Dda_lang
open Dda_core
open Dda_perfect
open Dda_analysis

let arb_fuzzed =
  QCheck.make
    ~print:(fun (p, s, i) ->
      Printf.sprintf "(%s, seed=%d, index=%d)\n%s" (Fuzz.profile_name p) s i
        (Fuzz.program p ~seed:s ~index:i))
    QCheck.Gen.(
      triple (oneofl Fuzz.all_profiles) (int_bound 100_000) (int_bound 5_000))

let lint_of (profile, seed, index) =
  let text = Fuzz.program profile ~seed ~index in
  Lint.run (Parser.parse_program text)

(* ------------------------------------------------------------------ *)
(* DOALL verdicts vs one execution                                     *)
(* ------------------------------------------------------------------ *)

let doall_check (res : Lint.result) =
  Exec_check.doall ~prepared:res.Lint.prepared res.Lint.summary

let prop_doall_differential =
  QCheck.Test.make
    ~name:"every DOALL loop agrees with one execution" ~count:200
    arb_fuzzed
    (fun input ->
       match doall_check (lint_of input) with
       | Exec_check.Ran { refuted = Some msg; _ } ->
         QCheck.Test.fail_reportf "differential failure: %s" msg
       | Exec_check.Ran { refuted = None; _ } | Exec_check.Cannot_run _ -> true)

(* ------------------------------------------------------------------ *)
(* Injected annotations vs findings                                    *)
(* ------------------------------------------------------------------ *)

(* Mark every loop [parallel], so the annotation checker must rule on
   each one. *)
let rec annotate_stmt (s : Ast.stmt) =
  match s.sdesc with
  | Ast.For f ->
    {
      s with
      sdesc =
        Ast.For { f with parallel = true; body = List.map annotate_stmt f.body };
    }
  | Ast.If (c, t, e) ->
    {
      s with
      sdesc = Ast.If (c, List.map annotate_stmt t, List.map annotate_stmt e);
    }
  | Ast.Assign _ | Ast.Read _ -> s

let has_exact_evidence (li : Summary.loop_info) =
  List.exists (fun (b : Summary.blocking) -> b.edge.Classify.exact) li.blocking
  || li.scalar_blockers <> []

let prop_annotations_answered =
  QCheck.Test.make
    ~name:
      "every annotated carried-dep loop is reported — race iff the evidence \
       is exact"
    ~count:200 arb_fuzzed
    (fun (profile, seed, index) ->
       let text = Fuzz.program profile ~seed ~index in
       let prog = List.map annotate_stmt (Parser.parse_program text) in
       let res = Lint.run prog in
       List.for_all
         (fun (li : Summary.loop_info) ->
            let at_loc (d : Dda_check.Verify.diagnostic) =
              Loc.equal d.loc li.loc
            in
            if (not li.parallel_annot) || li.verdict = Summary.Doall then
              (* Certified loops draw no finding. *)
              (not li.parallel_annot)
              || not (List.exists at_loc res.Lint.findings)
            else
              match List.find_opt at_loc res.Lint.findings with
              | None ->
                QCheck.Test.fail_reportf
                  "loop %s at %s: %s verdict but no finding\n%s" li.var
                  (Loc.to_string li.loc)
                  (Summary.verdict_name li.verdict)
                  text
              | Some d ->
                let want_error = has_exact_evidence li in
                let is_error =
                  d.Dda_check.Verify.severity = Dda_check.Verify.Sev_error
                in
                if want_error <> is_error then
                  QCheck.Test.fail_reportf
                    "loop %s at %s: exact evidence %b but severity %s\n%s"
                    li.var
                    (Loc.to_string li.loc)
                    want_error
                    (Dda_check.Verify.severity_name d.Dda_check.Verify.severity)
                    text
                else
                  String.equal d.Dda_check.Verify.code
                    (if want_error then "parallel-race"
                     else "parallel-unproven"))
         res.Lint.summary.Summary.loops)

(* ------------------------------------------------------------------ *)
(* Degradation only denies                                             *)
(* ------------------------------------------------------------------ *)

let starved =
  {
    Analyzer.default_config with
    Analyzer.limits =
      { Budget.default_limits with Budget.max_steps = Some 1 };
  }

let doall_set (res : Lint.result) =
  List.filter_map
    (fun (lid, d) -> if d then Some lid else None)
    (Summary.doall_loops res.Lint.summary)

let prop_starved_budget_only_denies =
  QCheck.Test.make
    ~name:"a starved budget never grants a DOALL the full analysis denies"
    ~count:100 arb_fuzzed
    (fun (profile, seed, index) ->
       let text = Fuzz.program profile ~seed ~index in
       let full = Lint.run (Parser.parse_program text) in
       let tight = Lint.run ~config:starved (Parser.parse_program text) in
       let full_doall = doall_set full in
       List.for_all
         (fun lid ->
            List.mem lid full_doall
            || QCheck.Test.fail_reportf
                 "starved budget certified L%d that the full analysis denies\n\
                  %s"
                 lid text)
         (doall_set tight)
       && List.for_all
            (fun (li : Summary.loop_info) ->
               (not li.degraded) || li.verdict <> Summary.Doall)
            tight.Lint.summary.Summary.loops)

(* ------------------------------------------------------------------ *)
(* Per-loop buckets and shared witnesses                               *)
(* ------------------------------------------------------------------ *)

let same_edge (a : Classify.edge) (b : Classify.edge) =
  a.pair == b.pair && a.kind = b.kind && a.vector = b.vector
  && a.carried_lids = b.carried_lids
  && a.loop_independent = b.loop_independent
  && a.exact = b.exact

let index_of x xs =
  let rec go k = function
    | [] -> None
    | y :: _ when y = x -> Some k
    | _ :: rest -> go (k + 1) rest
  in
  go 0 xs

(* A witness realizes its edge at carrier level [k]: the iterations
   agree on every outer level and differ at level [k] in a direction
   the edge's vector admits. *)
let witness_ok (e : Classify.edge) k (w : Summary.witness) =
  let open Dda_numeric in
  k < Array.length w.iter1
  && Array.length w.iter1 = Array.length w.iter2
  && (let ok = ref true in
      for j = 0 to k - 1 do
        if not (Zint.equal w.iter1.(j) w.iter2.(j)) then ok := false
      done;
      !ok)
  &&
  let c = Zint.compare w.iter1.(k) w.iter2.(k) in
  match e.vector with
  | Some v when k < Array.length v -> (
      match v.(k) with
      | Direction.Dlt -> c < 0
      | Direction.Dgt -> c > 0
      | Direction.Deq | Direction.Dany -> c <> 0)
  | _ -> c <> 0

let prop_buckets_and_witnesses =
  QCheck.Test.make
    ~name:
      "each loop blocks on exactly its carried edges, in edge order, with \
       valid witnesses"
    ~count:200
    (QCheck.pair arb_fuzzed QCheck.bool)
    (fun ((profile, seed, index), annotated) ->
       let text = Fuzz.program profile ~seed ~index in
       let prog = Parser.parse_program text in
       let prog = if annotated then List.map annotate_stmt prog else prog in
       let res = Lint.run prog in
       let edges = Classify.edges res.Lint.report in
       List.for_all
         (fun (li : Summary.loop_info) ->
            let want =
              List.filter
                (fun (e : Classify.edge) -> List.mem li.lid e.carried_lids)
                edges
            in
            let got = List.map (fun (b : Summary.blocking) -> b.edge) li.blocking in
            if
              not
                (List.compare_lengths got want = 0
                 && List.for_all2 same_edge got want)
            then
              QCheck.Test.fail_reportf
                "loop %s (L%d): %d blocking edges, %d carried edges\n%s"
                li.var li.lid (List.length got) (List.length want) text
            else
              List.for_all
                (fun (b : Summary.blocking) ->
                   match
                     (b.witness, index_of li.lid b.edge.pair.common_ids)
                   with
                   | None, _ -> true
                   | Some w, Some k when witness_ok b.edge k w -> true
                   | Some _, _ ->
                     QCheck.Test.fail_reportf
                       "loop %s (L%d): witness does not realize its edge at \
                        %s x %s\n%s"
                       li.var li.lid
                       (Loc.to_string b.edge.pair.loc1)
                       (Loc.to_string b.edge.pair.loc2)
                       text)
                li.blocking)
         res.Lint.summary.Summary.loops)

(* ------------------------------------------------------------------ *)
(* Memoized replay vs a one-pair-at-a-time oracle                      *)
(* ------------------------------------------------------------------ *)

(* The replay without any memo: every blocking entry rebuilds its
   pair's problem, re-runs the gcd reduction and asks the cascade
   afresh. [Summary.compute] must produce exactly these witnesses. *)
let naive_witness ~(config : Analyzer.config) (s1, s2) (edge : Classify.edge)
    k =
  match Build_problem.build s1 s2 with
  | None -> None
  | Some p -> (
      match Gcd_test.run p with
      | Gcd_test.Independent _ -> None
      | Gcd_test.Reduced red ->
        let attempt sign =
          let sys = Direction.first_difference p red k sign in
          let budget = Budget.create config.Analyzer.limits in
          match
            (Cascade.run ~budget ~fm_tighten:config.Analyzer.fm_tighten sys)
              .Cascade.verdict
          with
          | Cascade.Dependent w ->
            let x = Gcd_test.x_of_t red w in
            Some
              {
                Summary.iter1 =
                  Array.init p.Problem.ncommon (fun j -> x.(Problem.var1 p j));
                iter2 =
                  Array.init p.Problem.ncommon (fun j -> x.(Problem.var2 p j));
              }
          | Cascade.Independent _ | Cascade.Unknown | Cascade.Exhausted _ ->
            None
        in
        let signs =
          match edge.vector with
          | Some v when k < Array.length v -> (
              match v.(k) with
              | Direction.Dlt -> [ Direction.Dlt ]
              | Direction.Dgt -> [ Direction.Dgt ]
              | Direction.Dany | Direction.Deq ->
                [ Direction.Dlt; Direction.Dgt ])
          | _ -> [ Direction.Dlt; Direction.Dgt ]
        in
        List.find_map attempt signs)

let show_witness = function
  | None -> "none"
  | Some (w : Summary.witness) ->
    let show a =
      String.concat "," (Array.to_list (Array.map Dda_numeric.Zint.to_string a))
    in
    Printf.sprintf "(%s)->(%s)" (show w.iter1) (show w.iter2)

(* [None] when [res.summary] matches the oracle, else what differs. *)
let oracle_mismatch ~config (res : Lint.result) =
  let pairs = Analyzer.site_pairs config res.Lint.sites in
  let sites = List.combine res.Lint.report.Analyzer.pair_reports pairs in
  let edges = Classify.edges res.Lint.report in
  List.find_map
    (fun (li : Summary.loop_info) ->
       let want =
         List.filter
           (fun (e : Classify.edge) -> List.mem li.lid e.carried_lids)
           edges
       in
       if
         not
           (List.compare_lengths li.blocking want = 0
            && List.for_all2
                 (fun (b : Summary.blocking) e -> same_edge b.edge e)
                 li.blocking want)
       then Some (Printf.sprintf "L%d: blocking edges differ" li.lid)
       else
         List.find_map
           (fun (b : Summary.blocking) ->
              let pair = b.edge.pair in
              let naive =
                match index_of li.lid pair.common_ids with
                | None -> None
                | Some k ->
                  naive_witness ~config (List.assq pair sites) b.edge k
              in
              if show_witness b.witness = show_witness naive then None
              else
                Some
                  (Printf.sprintf "L%d, %s x %s: witness %s, oracle %s" li.lid
                     (Loc.to_string pair.loc1) (Loc.to_string pair.loc2)
                     (show_witness b.witness) (show_witness naive)))
           li.blocking)
    res.Lint.summary.Summary.loops

let prop_memo_matches_oracle =
  QCheck.Test.make
    ~name:"memoized witness replay equals the one-pair-at-a-time oracle"
    ~count:200
    (QCheck.triple arb_fuzzed QCheck.bool QCheck.bool)
    (fun ((profile, seed, index), annotated, starve) ->
       let text = Fuzz.program profile ~seed ~index in
       let prog = Parser.parse_program text in
       let prog = if annotated then List.map annotate_stmt prog else prog in
       let config = if starve then starved else Analyzer.default_config in
       match oracle_mismatch ~config (Lint.run ~config prog) with
       | None -> true
       | Some msg -> QCheck.Test.fail_reportf "%s\n%s" msg text)

let test_perfect_matches_oracle () =
  List.iter
    (fun (spec : Programs.spec) ->
       let prog = Parser.parse_program (Programs.source spec) in
       List.iter
         (fun (annotated, config) ->
            let prog = if annotated then List.map annotate_stmt prog else prog in
            match oracle_mismatch ~config (Lint.run ~config prog) with
            | None -> ()
            | Some msg -> Alcotest.failf "%s: %s" spec.name msg)
         [
           (false, Analyzer.default_config);
           (true, Analyzer.default_config);
           (false, starved);
           (true, starved);
         ])
    Programs.all

(* ------------------------------------------------------------------ *)
(* Deterministic fixtures                                              *)
(* ------------------------------------------------------------------ *)

let parse = Parser.parse_program

let test_race_reported () =
  let res =
    Lint.run
      (parse "parallel for i = 1 to 10 do\n  a[i] = a[i - 1] + 1\nend\n")
  in
  Alcotest.(check int) "one error" 1 res.Lint.errors;
  match res.Lint.findings with
  | [ d ] ->
    Alcotest.(check string) "code" "parallel-race" d.Dda_check.Verify.code;
    Alcotest.(check bool)
      "witness mentioned" true
      (let msg = d.Dda_check.Verify.message in
       let has_sub sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has_sub "witness iterations")
  | _ -> Alcotest.fail "expected exactly one finding"

let test_clean_certified () =
  let res =
    Lint.run (parse "parallel for i = 1 to 10 do\n  a[i] = b[i] + 1\nend\n")
  in
  Alcotest.(check int) "no errors" 0 res.Lint.errors;
  Alcotest.(check int) "no warnings" 0 res.Lint.warnings;
  match res.Lint.summary.Summary.loops with
  | [ li ] ->
    Alcotest.(check string) "doall" "doall" (Summary.verdict_name li.verdict)
  | _ -> Alcotest.fail "expected one loop"

let test_reduction_detected () =
  let res =
    Lint.run (parse "for i = 1 to 10 do\n  s = s + a[i]\nend\n")
  in
  match res.Lint.summary.Summary.loops with
  | [ li ] ->
    Alcotest.(check string) "reduction" "reduction"
      (Summary.verdict_name li.verdict)
  | _ -> Alcotest.fail "expected one loop"

let test_starved_race_degrades_to_warning () =
  let res =
    Lint.run ~config:starved
      (parse "parallel for i = 1 to 10 do\n  a[i] = a[i - 1] + 1\nend\n")
  in
  Alcotest.(check int) "no errors under a starved budget" 0 res.Lint.errors;
  Alcotest.(check int) "one warning" 1 res.Lint.warnings;
  match res.Lint.findings with
  | [ d ] ->
    Alcotest.(check string) "code" "parallel-unproven" d.Dda_check.Verify.code
  | _ -> Alcotest.fail "expected exactly one finding"

(* A prefix scan reads its accumulator outside the accumulation: each
   iteration needs the partial sum, so no reduction clause can run it
   in parallel. *)
let test_scan_is_serial () =
  let res =
    Lint.run
      (parse "s = 0\nfor i = 1 to 100 do\n  s = s + a[i]\n  b[i] = s\nend\n")
  in
  match res.Lint.summary.Summary.loops with
  | [ li ] ->
    Alcotest.(check string) "serial" "serial" (Summary.verdict_name li.verdict)
  | _ -> Alcotest.fail "expected one loop"

(* [a] and [b] give problems whose equality rows are negations of each
   other ([4i - 3j - 3j' = 1] against [-4i + 3j + 3j' = -1]). Negated,
   the anti pair's row reduces to a different particular solution. The
   replay memo keys rows exactly as written, so each pair is replayed
   from its own reduction: its witness satisfies its own problem and is
   the one the one-pair-at-a-time oracle derives. *)
let test_negated_rows_keep_own_witness () =
  let res =
    Lint.run
      (parse
         "for i = 1 to 10 do\n\
         \  for j = 1 to 10 do\n\
         \    a[4*i - 3*j] = a[3*j + 1] + 1\n\
         \    b[-4*i + 3*j] = b[-3*j - 1] + 1\n\
         \  end\n\
          end\n")
  in
  let config = Analyzer.default_config in
  let pairs = Analyzer.site_pairs config res.Lint.sites in
  let sites = List.combine res.Lint.report.Analyzer.pair_reports pairs in
  let anti = Hashtbl.create 4 in
  List.iter
    (fun (b : Summary.blocking) ->
       let s1, s2 = List.assq b.edge.pair sites in
       match (b.witness, Build_problem.build s1 s2) with
       | Some w, Some p ->
         let point = Array.append w.iter1 w.iter2 in
         Alcotest.(check bool)
           (b.edge.pair.array_name ^ ": witness satisfies its problem")
           true
           (Array.length point = Problem.nvars p && Problem.satisfies point p);
         if b.edge.kind = Analyzer.Anti then
           Hashtbl.replace anti b.edge.pair.array_name (show_witness (Some w))
       | _ -> ())
    (List.concat_map
       (fun (li : Summary.loop_info) -> li.blocking)
       res.Lint.summary.Summary.loops);
  Alcotest.(check bool)
    "the two anti pairs have different witnesses" true
    (Hashtbl.find_opt anti "a" <> Hashtbl.find_opt anti "b");
  Alcotest.(check (option string)) "every witness is the oracle's" None
    (oracle_mismatch ~config res)

(* A coefficient past the native int range: the replay memo keys each
   problem in place, comparing and hashing [Zint]s, so such a pair is
   memoized like any other. It still gets the witness the
   one-pair-at-a-time oracle derives, and [a] and [b], whose problems
   are equal, share one witness record. The report comes from the same
   nest with a small coefficient (same pairs, same edges); the sites,
   and with them the replayed problems, from the big one. *)
let test_unkeyable_problem_replayed () =
  let config = { Analyzer.default_config with Analyzer.run_pipeline = false } in
  let nest c =
    Printf.sprintf
      "for i = 1 to 10 do\n  a[%s * i] = a[%s * i - %s] + 1\n  b[%s * i] = b[%s * i - %s] + 1\nend\n"
      c c c c c c
  in
  let small = Lint.run ~config (parse (nest "2")) in
  let big = parse (nest "(4611686018427387903 + 4611686018427387903)") in
  let sites = Affine.extract ~symbolic:true big in
  let pairs = Analyzer.site_pairs config sites in
  let t = Summary.compute ~config ~prepared:big ~pairs small.Lint.report in
  let by_pair = List.combine small.Lint.report.Analyzer.pair_reports pairs in
  let blocking = List.concat_map (fun (li : Summary.loop_info) -> li.blocking) t.loops in
  let flow name =
    List.find_map
      (fun (b : Summary.blocking) ->
         if b.edge.pair.array_name = name && b.edge.kind = Analyzer.Flow then b.witness
         else None)
      blocking
  in
  Alcotest.(check (list string)) "the flow witnesses" [ "(1)->(2)"; "(1)->(2)" ]
    (List.map (fun name -> show_witness (flow name)) [ "a"; "b" ]);
  List.iter
    (fun (b : Summary.blocking) ->
       let naive =
         match index_of 0 b.edge.pair.common_ids with
         | Some k -> naive_witness ~config (List.assq b.edge.pair by_pair) b.edge k
         | None -> None
       in
       Alcotest.(check string)
         (b.edge.pair.array_name ^ ": the oracle's witness")
         (show_witness naive) (show_witness b.witness))
    blocking;
  match (flow "a", flow "b") with
  | Some wa, Some wb ->
    Alcotest.(check bool) "equal problems share one witness record" true (wa == wb)
  | _ -> Alcotest.fail "a flow witness is missing"

(* The witnesses of [t] against the one-pair-at-a-time oracle, [by_pair]
   giving each pair report's sites: [None] when every blocking entry
   has the oracle's witness, else the first that differs. *)
let witness_mismatch ~config by_pair (t : Summary.t) =
  List.find_map
    (fun (li : Summary.loop_info) ->
       List.find_map
         (fun (b : Summary.blocking) ->
            let naive =
              match index_of li.lid b.edge.pair.common_ids with
              | Some k -> naive_witness ~config (List.assq b.edge.pair by_pair) b.edge k
              | None -> None
            in
            if show_witness b.witness = show_witness naive then None
            else
              Some
                (Printf.sprintf "L%d, %s: witness %s, oracle %s" li.lid
                   b.edge.pair.array_name (show_witness b.witness) (show_witness naive)))
         li.blocking)
    t.loops

(* The flow witness of the pair on [name] carried by [lid]. *)
let flow_witness (t : Summary.t) ~lid name =
  List.find_map
    (fun (li : Summary.loop_info) ->
       if li.lid <> lid then None
       else
         List.find_map
           (fun (b : Summary.blocking) ->
              if b.edge.pair.array_name = name && b.edge.kind = Analyzer.Flow then b.witness
              else None)
           li.blocking)
    t.loops

(* Symbolic and triangular bounds: [j]'s bound rows name [i] and [n],
   so the replay key carries rows of both subjects and a symbol. [a]
   and [b] have one problem, [c] and [d] another, and [e] [a]'s but
   for the constant of [i]'s lower bound; each of the first two pairs
   shares one witness record, every witness is the oracle's, and the
   three problems get three different witnesses. *)
let test_triangular_symbolic_bounds () =
  let res =
    Lint.run
      (parse
         "read(n)\n\
          for i = 1 to n do\n\
         \  for j = i to n do\n\
         \    a[i][j] = a[i - 1][j] + 1\n\
         \    b[i][j] = b[i - 1][j] + 1\n\
         \  end\n\
         \  for j = 1 to i do\n\
         \    c[i][j] = c[i - 1][j] + 1\n\
         \    d[i][j] = d[i - 1][j] + 1\n\
         \  end\n\
          end\n\
          for i = 5 to n do\n\
         \  for j = i to n do\n\
         \    e[i][j] = e[i - 1][j] + 1\n\
         \  end\n\
          end\n")
  in
  let config = Analyzer.default_config in
  Alcotest.(check (option string)) "every witness is the oracle's" None
    (oracle_mismatch ~config res);
  let t = res.Lint.summary in
  match
    List.map (flow_witness t ~lid:0) [ "a"; "b"; "c"; "d" ] @ [ flow_witness t ~lid:3 "e" ]
  with
  | [ Some wa; Some wb; Some wc; Some wd; Some we ] ->
    Alcotest.(check bool) "a and b share one witness record" true (wa == wb);
    Alcotest.(check bool) "c and d share one witness record" true (wc == wd);
    Alcotest.(check int) "three problems, three witnesses" 3
      (List.length
         (List.sort_uniq compare (List.map (fun w -> show_witness (Some w)) [ wa; wc; we ])))
  | _ -> Alcotest.fail "a flow witness is missing"

(* One program, two kinds of pair: [a] and [b] have a coefficient past
   the native int range and no replay key, [c] and [d] are keyed from
   their sites. The report comes from the same nest with a small
   coefficient, as in the test above. Every witness is the oracle's,
   and equal problems share one witness record on either path. *)
let test_keyed_and_unkeyable_mixed () =
  let config = { Analyzer.default_config with Analyzer.run_pipeline = false } in
  let nest c =
    Printf.sprintf
      "for i = 1 to 10 do\n\
      \  a[%s * i] = a[%s * i - %s] + 1\n\
      \  c[i + 2] = c[i] + 1\n\
      \  b[%s * i] = b[%s * i - %s] + 1\n\
      \  d[i + 2] = d[i] + 1\n\
       end\n"
      c c c c c c
  in
  let small = Lint.run ~config (parse (nest "2")) in
  let big = parse (nest "(4611686018427387903 + 4611686018427387903)") in
  let sites = Affine.extract ~symbolic:true big in
  let pairs = Analyzer.site_pairs config sites in
  Alcotest.(check bool) "a's pair has no replay key, c's has one" true
    (List.exists
       (fun ((s1 : Affine.site), s2) ->
          s1.array = "a" && Build_problem.replay_key s1 s2 = [||])
       pairs
     && List.exists
          (fun ((s1 : Affine.site), s2) ->
             s1.array = "c" && Build_problem.replay_key s1 s2 <> [||])
          pairs);
  let t = Summary.compute ~config ~prepared:big ~pairs small.Lint.report in
  let by_pair = List.combine small.Lint.report.Analyzer.pair_reports pairs in
  Alcotest.(check (option string)) "every witness is the oracle's" None
    (witness_mismatch ~config by_pair t);
  match List.map (flow_witness t ~lid:0) [ "a"; "b"; "c"; "d" ] with
  | [ Some wa; Some wb; Some wc; Some wd ] ->
    Alcotest.(check bool) "a and b share one witness record" true (wa == wb);
    Alcotest.(check bool) "c and d share one witness record" true (wc == wd);
    Alcotest.(check (list string)) "the flow witnesses"
      [ "(1)->(2)"; "(1)->(3)" ]
      [ show_witness (Some wa); show_witness (Some wc) ]
  | _ -> Alcotest.fail "a flow witness is missing"

(* An exhausted cascade run says nothing about its problem, so the
   replay memo must not keep it: [a] and [b] share one problem, the
   first cascade run (on [a]'s pair) is forced to exhaust, and [b]'s
   pair must still get a witness. *)
let test_exhausted_answer_not_cached () =
  let res =
    Lint.run
      (parse "for i = 1 to 10 do\n  a[i + 1] = a[i] + 1\n  b[i + 1] = b[i] + 1\nend\n")
  in
  let pairs = Analyzer.site_pairs Analyzer.default_config res.Lint.sites in
  let t =
    Fun.protect ~finally:Failpoint.clear (fun () ->
        Failpoint.set "svpc.run=exhaust@1";
        Summary.compute ~prepared:res.Lint.prepared ~pairs res.Lint.report)
  in
  let witnessed name =
    List.exists
      (fun (li : Summary.loop_info) ->
         List.exists
           (fun (b : Summary.blocking) ->
              b.edge.pair.array_name = name && b.witness <> None)
           li.blocking)
      t.loops
  in
  Alcotest.(check bool) "the exhausted query lost a's witness" false
    (witnessed "a");
  Alcotest.(check bool) "b's identical problem still gets one" true
    (witnessed "b")

(* Summary.compute's contract: a pair list that does not match the
   report costs the witnesses, never a verdict or an edge. *)
let test_pair_mismatch_keeps_verdicts () =
  let res =
    Lint.run
      (parse
         "for i = 1 to 10 do\n  a[i] = a[i - 1] + 1\n  b[i] = b[i] + 2\nend\n")
  in
  let s = res.Lint.summary in
  let bare =
    Summary.compute ~prepared:res.Lint.prepared ~pairs:[] res.Lint.report
  in
  let shape (t : Summary.t) =
    List.map
      (fun (li : Summary.loop_info) ->
         (li.lid, Summary.verdict_name li.verdict, List.length li.blocking))
      t.loops
  in
  Alcotest.(check (list (triple int string int)))
    "same loops, verdicts and blocking edges" (shape s) (shape bare);
  Alcotest.(check int) "same edges" (List.length s.edges)
    (List.length bare.edges);
  let witnesses (t : Summary.t) =
    List.concat_map
      (fun (li : Summary.loop_info) ->
         List.filter_map (fun (b : Summary.blocking) -> b.witness) li.blocking)
      t.loops
  in
  Alcotest.(check bool) "the matched run has a witness" true
    (witnesses s <> []);
  Alcotest.(check int) "the mismatched run has none" 0
    (List.length (witnesses bare))

(* A pair list of the right length in the wrong order replays each
   report against another pair's problem: here [b]'s two-deep reports,
   whose edges [j] carries at level 1, meet [a]'s one-deep problems.
   Their witnesses are meaningless, but the verdicts and edges stay. *)
let test_pair_order_mismatch_keeps_verdicts () =
  let res =
    Lint.run
      (parse
         "for i = 1 to 10 do\n\
         \  a[i] = a[i - 1] + 1\n\
         \  for j = 1 to 10 do\n\
         \    b[i][j] = b[i][j - 1] + 1\n\
         \  end\n\
          end\n")
  in
  let pairs = Analyzer.site_pairs Analyzer.default_config res.Lint.sites in
  let permuted =
    Summary.compute ~prepared:res.Lint.prepared ~pairs:(List.rev pairs)
      res.Lint.report
  in
  let shape (t : Summary.t) =
    List.map
      (fun (li : Summary.loop_info) ->
         (li.lid, Summary.verdict_name li.verdict, List.length li.blocking))
      t.loops
  in
  Alcotest.(check (list (triple int string int)))
    "same loops, verdicts and blocking edges" (shape res.Lint.summary)
    (shape permuted);
  Alcotest.(check int) "same edges" (List.length res.Lint.summary.edges)
    (List.length permuted.edges)

(* ------------------------------------------------------------------ *)
(* The execution oracle's DOALL check                                  *)
(* ------------------------------------------------------------------ *)

let check_doall name ~doall ~executed ~refuted res =
  match doall_check res with
  | Exec_check.Ran r ->
    Alcotest.(check (triple int int (option string)))
      name (doall, executed, refuted)
      (r.doall, r.executed, r.refuted)
  | Exec_check.Cannot_run (msg, loc) ->
    Alcotest.failf "%s: cannot run: %s at %s" name msg (Loc.to_string loc)

(* [t] is written before it is read in every iteration, so the second
   loop is DOALL; the value it carries out to [c[1]] is the last
   iteration's, which [lastprivate] copies out and the check does not
   judge (running the loop reversed would change [c[1]]). *)
let test_lastprivate_agrees () =
  let res =
    Lint.run
      (parse
         "for i = 1 to 10 do\n  a[i] = i\nend\n\
          for i = 1 to 10 do\n  t = a[i]\n  b[i] = t\nend\nc[1] = t\n")
  in
  check_doall "two DOALL loops, run, agree" ~doall:2 ~executed:2 ~refuted:None res

(* The summary of each program forced to DOALL: the check must refuse
   it, naming the loop. *)
let test_forced_doall_refuted () =
  List.iter
    (fun (body, why) ->
       let res = Lint.run (parse ("for i = 1 to 10 do\n" ^ body ^ "end\n")) in
       let forced =
         {
           res with
           Lint.summary =
             {
               res.Lint.summary with
               Summary.loops =
                 List.map
                   (fun (li : Summary.loop_info) -> { li with verdict = Summary.Doall })
                   res.Lint.summary.Summary.loops;
             };
         }
       in
       check_doall body ~doall:1 ~executed:1
         ~refuted:(Some ("doall loop 'i' at 1:1: " ^ why))
         forced)
    [
      ( "  a[i + 1] = a[i]\n",
        "iterations i = 1 and i = 2 both touch a[2], one of them writing" );
      ( "  b[i] = t\n  t = a[i]\n",
        "iteration i = 1 reads t before writing it, and the loop writes t" );
    ]

(* Loops whose iterations communicate through a scalar: the summary
   denies each DOALL, so execution has nothing to refute. A summary
   that missed the carried scalar would grant one, and the run would
   refute it. *)
let test_carried_scalars_agree () =
  List.iter
    (fun src ->
       let res = Lint.run (parse src) in
       check_doall src ~doall:0 ~executed:0 ~refuted:None res)
    [
      "for i = 1 to 10 do\n  s = s + a[i]\nend\n";
      "s = 0\nfor i = 1 to 10 do\n  s = s + a[i]\n  b[i] = s\nend\n";
      "for i = 1 to 10 do\n  b[i] = t\n  t = a[i]\nend\n";
      "for i = 1 to 10 do\n  if i > 5 then\n    t = a[i]\n  end\n  b[i] = t\nend\n";
    ]

(* Every DOALL loop of every PERFECT program runs (input n = 6) and
   agrees with the execution. *)
let test_perfect_doall_agree () =
  List.iter
    (fun (spec : Programs.spec) ->
       let res = Lint.run (parse (Programs.source spec)) in
       let doall =
         List.length (List.filter snd (Summary.doall_loops res.Lint.summary))
       in
       check_doall spec.name ~doall ~executed:doall ~refuted:None res)
    Programs.all

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "race reported with witness" `Quick
            test_race_reported;
          Alcotest.test_case "clean annotation certified" `Quick
            test_clean_certified;
          Alcotest.test_case "reduction detected" `Quick
            test_reduction_detected;
          Alcotest.test_case "starved race degrades to warning" `Quick
            test_starved_race_degrades_to_warning;
          Alcotest.test_case "pair mismatch keeps verdicts" `Quick
            test_pair_mismatch_keeps_verdicts;
          Alcotest.test_case "pair order mismatch keeps verdicts" `Quick
            test_pair_order_mismatch_keeps_verdicts;
          Alcotest.test_case "scan is serial, not a reduction" `Quick
            test_scan_is_serial;
          Alcotest.test_case "negated rows keep their own witness" `Quick
            test_negated_rows_keep_own_witness;
          Alcotest.test_case "unkeyable problem replayed" `Quick
            test_unkeyable_problem_replayed;
          Alcotest.test_case "triangular and symbolic bounds replayed" `Quick
            test_triangular_symbolic_bounds;
          Alcotest.test_case "keyed and unkeyable pairs in one program" `Quick
            test_keyed_and_unkeyable_mixed;
          Alcotest.test_case "exhausted answer not cached" `Quick
            test_exhausted_answer_not_cached;
          Alcotest.test_case "PERFECT replay equals the oracle" `Quick
            test_perfect_matches_oracle;
          Alcotest.test_case "lastprivate DOALL agrees with execution" `Quick
            test_lastprivate_agrees;
          Alcotest.test_case "forced DOALL refuted by execution" `Quick
            test_forced_doall_refuted;
          Alcotest.test_case "carried scalars agree with execution" `Quick
            test_carried_scalars_agree;
          Alcotest.test_case "PERFECT DOALL loops agree with execution" `Quick
            test_perfect_doall_agree;
        ] );
      ( "fuzzed",
        [
          qt prop_doall_differential;
          qt prop_annotations_answered;
          qt prop_starved_budget_only_denies;
          qt prop_buckets_and_witnesses;
          qt prop_memo_matches_oracle;
        ] );
    ]
