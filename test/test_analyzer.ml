(* End-to-end analyzer tests: the paper's worked examples as unit
   tests, and the master exactness property — on random affine loop
   nests, the analyzer's verdicts, direction vectors, and distance
   vectors must match the brute-force execution-trace oracle
   exactly. *)

open Dda_numeric
open Dda_lang
open Dda_core

let parse = Parser.parse_program

(* Full refinement and no canonicalization: every reported vector is
   concrete, so it can be compared to the oracle as an exact set.
   (Memo_improved may drop unused common levels and report them as "*",
   which is the paper's summarized form — covered by a separate
   property.) *)
let exact_config =
  {
    Analyzer.default_config with
    Analyzer.prune = Direction.no_pruning;
    memo = Analyzer.Memo_simple;
    run_pipeline = false;
    within_nest_only = false;
  }

let plain_config =
  {
    Analyzer.default_config with
    Analyzer.directions = false;
    run_pipeline = false;
    within_nest_only = false;
  }

let analyze ?(config = exact_config) src = Analyzer.analyze ~config (parse src)

(* The single non-self pair of a simple loop. *)
let only_pair (report : Analyzer.report) =
  match List.filter (fun (r : Analyzer.pair_report) -> not r.self_pair) report.pair_reports with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 non-self pair, got %d" (List.length rs)

let dirs_to_string vs =
  String.concat " " (List.map (Format.asprintf "%a" Direction.pp_vector) vs)

(* ------------------------------------------------------------------ *)
(* Paper examples                                                      *)
(* ------------------------------------------------------------------ *)

let test_intro_independent () =
  let r = only_pair (analyze "for i = 1 to 10 do a[i] = a[i+10] + 3 end") in
  match r.outcome with
  | Analyzer.Tested t -> Alcotest.(check bool) "independent" false t.dependent
  | _ -> Alcotest.fail "expected tested outcome"

let test_intro_dependent () =
  let r = only_pair (analyze "for i = 1 to 10 do a[i+1] = a[i] + 3 end") in
  match r.outcome with
  | Analyzer.Tested t ->
    Alcotest.(check bool) "dependent" true t.dependent;
    Alcotest.(check string) "direction <" "(<)" (dirs_to_string t.directions);
    (match t.distance with
     | Some d -> Alcotest.(check int) "distance 1" 1 (Zint.to_int_exn d.(0))
     | None -> Alcotest.fail "expected distance")
  | _ -> Alcotest.fail "expected tested outcome"

let test_intro_plain_mode () =
  (* Same examples through the plain (no direction vectors) cascade,
     checking which test decides. *)
  let r =
    only_pair (Analyzer.analyze ~config:plain_config (parse "for i = 1 to 10 do a[i] = a[i+10] + 3 end"))
  in
  (match r.outcome with
   | Analyzer.Tested { dependent = false; decided_by = Some Cascade.T_svpc; _ } -> ()
   | _ -> Alcotest.fail "expected SVPC independence");
  let r2 =
    only_pair (Analyzer.analyze ~config:plain_config (parse "for i = 1 to 10 do a[i+1] = a[i] + 3 end"))
  in
  match r2.outcome with
  | Analyzer.Tested { dependent = true; decided_by = Some Cascade.T_svpc; _ } -> ()
  | _ -> Alcotest.fail "expected SVPC dependence"

let test_coupled_svpc_example () =
  (* Section 3.2: a[i1][i2] = a[i2+10][i1+9], both loops 1..10:
     independent, and SVPC suffices even though subscripts are
     coupled. *)
  let src =
    "for i1 = 1 to 10 do for i2 = 1 to 10 do a[i1][i2] = a[i2+10][i1+9] end end"
  in
  let r = only_pair (Analyzer.analyze ~config:plain_config (parse src)) in
  match r.outcome with
  | Analyzer.Tested { dependent = false; decided_by = Some Cascade.T_svpc; _ } -> ()
  | Analyzer.Tested { decided_by = Some t; dependent; _ } ->
    Alcotest.failf "decided by %s dependent=%b" (Cascade.test_name t) dependent
  | _ -> Alcotest.fail "expected tested"

let test_section6_write_2i () =
  (* a[i][j] = a[2i][j] + 7 on 0..10 squares: dependent with vectors
     (=,=) and (>,=). *)
  let src =
    "for i = 0 to 10 do for j = 0 to 10 do a[i][j] = a[2*i][j] + 7 end end"
  in
  let r = only_pair (analyze src) in
  match r.outcome with
  | Analyzer.Tested t ->
    Alcotest.(check bool) "dependent" true t.dependent;
    Alcotest.(check string) "vectors" "(=,=) (>,=)" (dirs_to_string t.directions)
  | _ -> Alcotest.fail "expected tested"

let test_constant_subscripts () =
  let r3 = analyze "for i = 1 to 10 do a[3] = a[4] + 1 end" in
  let r = only_pair r3 in
  (match r.outcome with
   | Analyzer.Constant false -> ()
   | _ -> Alcotest.fail "a[3] vs a[4] should be constant-independent");
  Alcotest.(check int) "counted as constant case" 1 r3.stats.constant_cases;
  let r4 = only_pair (analyze "for i = 1 to 10 do a[3] = a[3] + 1 end") in
  match r4.outcome with
  | Analyzer.Constant true -> ()
  | _ -> Alcotest.fail "a[3] vs a[3] should be constant-dependent"

let test_symbolic_section8 () =
  (* read(n); a[i+n] = a[i+2n+1]: dependent for suitable n (n = i-i'-1
     always exists), and the analyzer should actually test it rather
     than give up. *)
  let src = "read(n)\nfor i = 1 to 10 do a[i+n] = a[i+2*n+1] + 3 end" in
  let r = only_pair (analyze src) in
  (match r.outcome with
   | Analyzer.Tested t -> Alcotest.(check bool) "dependent" true t.dependent
   | _ -> Alcotest.fail "expected tested outcome with symbolic mode");
  (* Without symbolic mode the same pair is assumed dependent. *)
  let cfg = { exact_config with Analyzer.symbolic = false } in
  let r2 = only_pair (Analyzer.analyze ~config:cfg (parse src)) in
  match r2.outcome with
  | Analyzer.Assumed_dependent -> ()
  | _ -> Alcotest.fail "expected assumed-dependent without symbolic mode"

let test_symbolic_exact_independence () =
  (* i + n = i' + n + 11 has no solution with 1 <= i,i' <= 10 whatever
     n is: symbolic mode proves independence where non-symbolic mode
     must assume dependence. *)
  let src = "read(n)\nfor i = 1 to 10 do a[i+n] = a[i+n+11] + 3 end" in
  let r = only_pair (analyze src) in
  (match r.outcome with
   | Analyzer.Tested t -> Alcotest.(check bool) "independent" false t.dependent
   | _ -> Alcotest.fail "expected tested");
  let cfg = { exact_config with Analyzer.symbolic = false } in
  let r2 = only_pair (Analyzer.analyze ~config:cfg (parse src)) in
  match r2.outcome with
  | Analyzer.Assumed_dependent -> ()
  | _ -> Alcotest.fail "expected assumed-dependent"

let test_symbolic_versioning () =
  (* n is redefined between the two references: the two n's must NOT be
     identified. a[n] = ...; n changes; ... = a[n]: the analyzer cannot
     prove independence (n#1 vs n#2 unconstrained, could collide), and
     must not claim dependence-freedom. It must also not treat them as
     equal (which the all-= claim would witness). *)
  let src = "read(n)\nb[n] = 1\nread(n)\nt = b[n]" in
  let report = analyze src in
  let r = only_pair report in
  (match r.outcome with
   | Analyzer.Tested t ->
     (* Different versions may or may not collide: exact answer is
        "dependent" (there exist n1 = n2 runs). *)
     Alcotest.(check bool) "cannot rule out collision" true t.dependent
   | _ -> Alcotest.fail "expected tested");
  (* Control: if n is NOT redefined, the subscripts are equal and the
     pair is dependent. *)
  let r2 = only_pair (analyze "read(n)\nb[n] = 1\nt = b[n]") in
  match r2.outcome with
  | Analyzer.Tested t -> Alcotest.(check bool) "same n collides" true t.dependent
  | _ -> Alcotest.fail "expected tested"

let test_distance_not_constant () =
  (* Paper section 6: for the pair a[10i+j] vs a[10(i+2)+j] the
     distance (2,0) is only constant because of the bounds; the GCD
     map cannot see it, so no distance vector is reported - but the
     dependence and its direction are still found. *)
  let src =
    "for i = 1 to 8 do for j = 1 to 10 do a[10*i+j] = a[10*(i+2)+j] + 7 end end"
  in
  let r = only_pair (analyze src) in
  match r.outcome with
  | Analyzer.Tested t ->
    Alcotest.(check bool) "dependent" true t.dependent;
    Alcotest.(check bool) "no constant distance" true (t.distance = None)
  | _ -> Alcotest.fail "expected tested"

let test_control_flow_conservative () =
  (* The analyzer ignores conditionals: a guard that never lets the
     references execute still yields "dependent" — sound, not exact
     (and the exactness properties therefore generate if-free
     programs). *)
  let src = "for i = 1 to 10 do\n  if i < 0 then a[i+1] = a[i] + 1 end\nend" in
  let report = analyze src in
  let r = only_pair report in
  (match r.outcome with
   | Analyzer.Tested t -> Alcotest.(check bool) "claims dependent" true t.dependent
   | _ -> Alcotest.fail "expected tested");
  let obs = Trace.observe (parse src) ~site1:r.loc1 ~site2:r.loc2 in
  Alcotest.(check bool) "but nothing executes" false obs.dependent

let test_doall_loops_client () =
  let prog = parse "for i = 1 to 10 do a[i] = a[i+10] + 3 end\nfor j = 1 to 10 do b[j+1] = b[j] + 3 end" in
  let res = Dda_analysis.Lint.run ~config:exact_config prog in
  match Dda_analysis.Summary.doall_loops res.Dda_analysis.Lint.summary with
  | [ (_, p1); (_, p2) ] ->
    Alcotest.(check bool) "first loop parallel" true p1;
    Alcotest.(check bool) "second loop serial" false p2
  | l -> Alcotest.failf "expected 2 loops, got %d" (List.length l)

let test_self_pair_output_dependence () =
  (* a[5] written every iteration: output dependence on itself. *)
  let report = analyze "for i = 1 to 4 do a[5] = i end" in
  (match report.pair_reports with
   | [ { self_pair = true; outcome = Analyzer.Tested t; _ } ] ->
     Alcotest.(check bool) "self dependent" true t.dependent;
     Alcotest.(check string) "both non-eq directions" "(<) (>)"
       (dirs_to_string t.directions)
   | _ -> Alcotest.fail "expected single self pair");
  (* a[i]: never collides with itself across iterations. *)
  let report2 = analyze "for i = 1 to 4 do a[i] = i end" in
  match report2.pair_reports with
  | [ { self_pair = true; outcome = Analyzer.Tested t; _ } ] ->
    Alcotest.(check bool) "self independent" false t.dependent
  | _ -> Alcotest.fail "expected single self pair"

let test_triangular_bounds () =
  (* Triangular nest: for i, for j = i+1 to 10: a[i][j] vs a[j][i] can
     never overlap because j > i on the write and the read transposes. *)
  let src =
    "for i = 1 to 10 do for j = i+1 to 10 do a[i][j] = a[j][i] + 1 end end"
  in
  let r = only_pair (analyze src) in
  match r.outcome with
  | Analyzer.Tested t -> Alcotest.(check bool) "independent" false t.dependent
  | _ -> Alcotest.fail "expected tested"

(* ------------------------------------------------------------------ *)
(* Master exactness property vs the execution oracle                   *)
(* ------------------------------------------------------------------ *)

let dir_of_trace = function
  | Trace.Lt -> Direction.Dlt
  | Trace.Eq -> Direction.Deq
  | Trace.Gt -> Direction.Dgt

let vector_key v =
  String.concat ""
    (List.map (function
       | Direction.Dlt -> "<"
       | Direction.Deq -> "="
       | Direction.Dgt -> ">"
       | Direction.Dany -> "*")
       (Array.to_list v))

let check_program_against_oracle prog =
  let report = Analyzer.analyze ~config:exact_config prog in
  List.for_all
    (fun (r : Analyzer.pair_report) ->
       let obs = Trace.observe prog ~site1:r.loc1 ~site2:r.loc2 in
       match r.outcome with
       | Analyzer.Constant dep -> dep = obs.dependent
       | Analyzer.Gcd_independent -> not obs.dependent
       | Analyzer.Assumed_dependent ->
         QCheck.Test.fail_reportf "unexpected non-affine pair"
       | Analyzer.Tested t ->
         let verdict_ok = t.dependent = obs.dependent in
         let analysis_vecs =
           List.sort_uniq compare (List.map vector_key t.directions)
         in
         let oracle_vecs =
           List.sort_uniq compare
             (List.map
                (fun ds -> vector_key (Array.of_list (List.map dir_of_trace ds)))
                obs.directions)
         in
         let vectors_ok = analysis_vecs = oracle_vecs in
         let distance_ok =
           match t.distance with
           | None -> true
           | Some d ->
             let d = Array.to_list (Array.map Zint.to_int_exn d) in
             (not obs.dependent) || List.for_all (fun od -> od = d) obs.distances
         in
         if not (verdict_ok && vectors_ok && distance_ok) then
           QCheck.Test.fail_reportf
             "pair %s/%s: verdict %b vs %b; vectors [%s] vs oracle [%s]"
             (Loc.to_string r.loc1) (Loc.to_string r.loc2) t.dependent
             obs.dependent
             (String.concat ";" analysis_vecs)
             (String.concat ";" oracle_vecs)
         else true)
    report.pair_reports

let prop_analyzer_exact =
  QCheck.Test.make ~name:"analyzer matches execution oracle exactly" ~count:250
    Test_support.Gen_ast.arb_affine_nest check_program_against_oracle

(* A concrete vector is covered by a claimed vector when each level
   matches or the claim is "*". *)
let covered concrete claim =
  Array.length concrete = Array.length claim
  && (let ok = ref true in
      Array.iteri
        (fun i c ->
           match claim.(i) with
           | Direction.Dany -> ()
           | d -> if d <> c then ok := false)
        concrete;
      !ok)

let prop_memo_transparent =
  QCheck.Test.make ~name:"memoization does not change any verdict" ~count:150
    Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let strip (r : Analyzer.report) =
         List.map
           (fun (p : Analyzer.pair_report) ->
              ( p.loc1,
                p.loc2,
                match p.outcome with
                | Analyzer.Tested t -> ("t", t.dependent)
                | Analyzer.Constant d -> ("c", d)
                | Analyzer.Gcd_independent -> ("g", false)
                | Analyzer.Assumed_dependent -> ("a", true) ))
           r.pair_reports
       in
       let vectors (r : Analyzer.report) =
         List.map
           (fun (p : Analyzer.pair_report) ->
              match p.outcome with Analyzer.Tested t -> t.directions | _ -> [])
           r.pair_reports
       in
       let with_memo m = { exact_config with Analyzer.memo = m } in
       let off = Analyzer.analyze ~config:(with_memo Analyzer.Memo_off) prog in
       let simple = Analyzer.analyze ~config:(with_memo Analyzer.Memo_simple) prog in
       let improved = Analyzer.analyze ~config:(with_memo Analyzer.Memo_improved) prog in
       (* Verdicts identical everywhere; simple memo changes nothing at
          all; improved memo may summarize dropped levels as "*" but
          must cover every concrete vector. *)
       strip off = strip simple
       && strip off = strip improved
       && vectors off = vectors simple
       && List.for_all2
            (fun concrete claimed ->
               List.for_all (fun c -> List.exists (covered c) claimed) concrete)
            (vectors off) (vectors improved))

let prop_pruning_sound =
  QCheck.Test.make ~name:"pruned vectors cover the oracle's vectors" ~count:150
    Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let cfg =
         { exact_config with Analyzer.prune = Direction.full_pruning }
       in
       let report = Analyzer.analyze ~config:cfg prog in
       List.for_all
         (fun (r : Analyzer.pair_report) ->
            let obs = Trace.observe prog ~site1:r.loc1 ~site2:r.loc2 in
            match r.outcome with
            | Analyzer.Constant dep -> dep = obs.dependent
            | Analyzer.Gcd_independent | Analyzer.Assumed_dependent -> true
            | Analyzer.Tested t ->
              (* Same dependent/independent verdict... *)
              t.dependent = obs.dependent
              && (* ...and every observed vector matched by some
                    (possibly wildcarded) reported vector. *)
              List.for_all
                (fun ods ->
                   let ov = List.map dir_of_trace ods in
                   List.exists
                     (fun av ->
                        List.length ov = Array.length av
                        && List.for_all2
                             (fun o a -> a = Direction.Dany || a = o)
                             ov (Array.to_list av))
                     t.directions)
                obs.directions)
         report.pair_reports)

(* [Direction.first_difference] is the one builder of the "equal before
   k, [d] at k" cell that witness replay and the verifier query. Each
   cell must be feasible exactly when the oracle observes a vector whose
   first non-"=" level is k with that sign (or the all-"=" vector, for
   [k = ncommon] with [Dany]; a self pair's all-"=" cell is the same
   iteration, which the oracle does not count). *)
let prop_first_difference_cells =
  QCheck.Test.make ~name:"first-difference cells match the oracle's vectors"
    ~count:150 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let front = Analyzer.front_end exact_config prog in
       let run = Trace.execute prog in
       List.for_all
         (fun ((s1 : Affine.site), (s2 : Affine.site)) ->
            match Build_problem.build s1 s2 with
            | None -> true
            | Some p ->
              let obs =
                Trace.observe_in run ~site1:s1.site_loc ~site2:s2.site_loc
              in
              let observed k d =
                List.exists
                  (fun ods ->
                     let v = Array.of_list (List.map dir_of_trace ods) in
                     Array.length v = p.Problem.ncommon
                     && (let rec before j =
                           j >= k || (v.(j) = Direction.Deq && before (j + 1))
                         in
                         before 0)
                     && (d = Direction.Dany || v.(k) = d))
                  obs.directions
              in
              (match Gcd_test.run p with
               | Gcd_test.Independent _ -> not obs.dependent
               | Gcd_test.Reduced red ->
                 let cell k d =
                   let expected = observed k d in
                   match
                     (Cascade.run (Direction.first_difference p red k d))
                       .Cascade.verdict
                   with
                   | Cascade.Dependent _ when expected -> true
                   | Cascade.Independent _ when not expected -> true
                   | Cascade.Unknown | Cascade.Exhausted _ -> true
                   | Cascade.Dependent _ | Cascade.Independent _ ->
                     QCheck.Test.fail_reportf
                       "pair %s/%s: cell (k=%d, %s) feasible=%b, oracle %b"
                       (Loc.to_string s1.site_loc) (Loc.to_string s2.site_loc)
                       k
                       (vector_key [| d |])
                       (not expected) expected
                 in
                 List.for_all
                   (fun k -> cell k Direction.Dlt && cell k Direction.Dgt)
                   (List.init p.Problem.ncommon Fun.id)
                 && (s1 == s2 || cell p.Problem.ncommon Direction.Dany)))
         front.Analyzer.pairs)

(* Symbolic analysis is input-independent; its claims must hold for
   every concrete input: an "independent" verdict means no input
   exhibits a dependence, and the direction-vector set must cover
   whatever any input exhibits. *)
let prop_symbolic_sound_for_all_inputs =
  QCheck.Test.make ~name:"symbolic verdicts sound for every sampled input"
    ~count:60 Test_support.Gen_ast.arb_symbolic_nest
    (fun prog ->
       (* Keep the oracle affordable: skip the largest iteration
          spaces. *)
       let loops = ref [] in
       Ast.iter_stmts
         (fun s ->
            match s.Ast.sdesc with
            | Ast.For _ -> loops := s :: !loops
            | _ -> ())
         prog;
       QCheck.assume (List.length !loops <= 2);
       let report = Analyzer.analyze ~config:exact_config prog in
       List.for_all
         (fun n ->
            let inputs = [ ("n", n) ] in
            List.for_all
              (fun (r : Analyzer.pair_report) ->
                 let obs = Trace.observe ~inputs prog ~site1:r.loc1 ~site2:r.loc2 in
                 match r.outcome with
                 | Analyzer.Constant dep -> dep = obs.dependent
                 | Analyzer.Gcd_independent -> not obs.dependent
                 | Analyzer.Assumed_dependent -> true
                 | Analyzer.Tested t ->
                   if not t.dependent then not obs.dependent
                   else
                     (* Coverage: every observed vector appears. *)
                     List.for_all
                       (fun ds ->
                          let ov =
                            vector_key (Array.of_list (List.map dir_of_trace ds))
                          in
                          List.exists (fun av -> vector_key av = ov) t.directions)
                       obs.directions)
              report.pair_reports)
         [ -3; 0; 2 ])

let prop_plain_verdict_matches_oracle =
  QCheck.Test.make ~name:"plain cascade verdict matches oracle" ~count:200
    Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let report = Analyzer.analyze ~config:plain_config prog in
       List.for_all
         (fun (r : Analyzer.pair_report) ->
            let obs = Trace.observe prog ~site1:r.loc1 ~site2:r.loc2 in
            match r.outcome with
            | Analyzer.Constant dep -> dep = obs.dependent
            | Analyzer.Gcd_independent -> not obs.dependent
            | Analyzer.Assumed_dependent -> true
            | Analyzer.Tested t ->
              (not t.unknown) && t.dependent = obs.dependent)
         report.pair_reports)

(* ------------------------------------------------------------------ *)
(* Pair enumeration vs the all-pairs scan                              *)
(* ------------------------------------------------------------------ *)

(* The oracle: every textually ordered (i, j >= i) pair of sites,
   filtered exactly as the analyzer's enumeration promises. *)
let naive_site_pairs (cfg : Analyzer.config) sites =
  let arr = Array.of_list sites in
  let out = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i to Array.length arr - 1 do
      let s1 = arr.(i) and s2 = arr.(j) in
      let self = i = j in
      if
        String.equal s1.Affine.array s2.Affine.array
        && (s1.role = `Write || s2.role = `Write)
        && ((not self) || s1.role = `Write)
        && ((not self) || cfg.directions)
        && ((not cfg.within_nest_only) || self
            || Affine.common_loops s1 s2 >= 1)
      then out := (s1, s2) :: !out
    done
  done;
  List.rev !out

(* Statements outside every loop, over the arrays the PERFECT-shaped
   nests use: writes and reads that an all-pairs scan would pair with
   the nests' sites, scalar assignments and reads. *)
let loop_free_stmts =
  [ "a[3] = a[2] + 1"; "x = n + 1"; "b[n] = c[1]"; "w[k] = w[k + 1] + x";
    "read(n)"; "c[2] = 0" ]

let perfect_shape rng =
  Dda_perfect.Patterns.generate rng
    (Dda_perfect.Prng.choose rng Dda_perfect.Patterns.all_categories)

(* Fuzzed programs, single PERFECT programs, runs of PERFECT-shaped
   nests, so that one array's sites span several nests, and such runs
   with loop-free statements before, between and after the nests. *)
let arb_pairing_program =
  let open QCheck.Gen in
  let fuzzed =
    map2
      (fun seed index -> Dda_perfect.Fuzz.program Mixed ~seed ~index)
      (int_bound 100_000) (int_bound 5_000)
  in
  let perfect =
    map Dda_perfect.Programs.source (oneofl Dda_perfect.Programs.all)
  in
  let shapes =
    map2
      (fun seed n ->
         let rng = Dda_perfect.Prng.create seed in
         String.concat "\n" (List.init n (fun _ -> perfect_shape rng)))
      (int_bound 100_000) (int_range 1 6)
  in
  let separated =
    map2
      (fun seed n ->
         let rng = Dda_perfect.Prng.create seed in
         let loose () =
           List.init (Dda_perfect.Prng.int rng 4) (fun _ ->
               Dda_perfect.Prng.choose rng loop_free_stmts)
         in
         String.concat "\n"
           (List.concat (List.init n (fun _ -> loose () @ [ perfect_shape rng ]))
            @ loose ()))
      (int_bound 100_000) (int_range 2 6)
  in
  QCheck.make ~print:Fun.id
    (frequency [ (3, fuzzed); (1, perfect); (2, shapes); (2, separated) ])

let same_pairs got want =
  List.compare_lengths got want = 0
  && List.for_all2 (fun (a1, a2) (b1, b2) -> a1 == b1 && a2 == b2) got want

let pairing_configs =
  List.map
    (fun (within_nest_only, directions) ->
       { Analyzer.default_config with Analyzer.within_nest_only; directions })
    [ (false, false); (false, true); (true, false); (true, true) ]

(* [site_pairs] against the all-pairs scan, on the sites in textual
   order (per-nest grouping) and shuffled (one program-wide grouping:
   the nests are no longer contiguous). *)
let prop_site_pairs_match_naive =
  QCheck.Test.make
    ~name:"grouped site_pairs equals the all-pairs scan, in order" ~count:150
    arb_pairing_program
    (fun text ->
       let sites =
         Affine.extract (Dda_passes.Pipeline.run (Parser.parse_program text))
       in
       let shuffled =
         let st = Random.State.make [| Hashtbl.hash text |] in
         List.map snd
           (List.sort compare
              (List.map (fun s -> (Random.State.bits st, s)) sites))
       in
       List.for_all
         (fun (cfg : Analyzer.config) ->
            List.for_all
              (fun (order, sites) ->
                 let got = Analyzer.site_pairs cfg sites in
                 let want = naive_site_pairs cfg sites in
                 same_pairs got want
                 || QCheck.Test.fail_reportf
                      "%s sites, within_nest_only=%b directions=%b: %d pairs, \
                       oracle %d"
                      order cfg.within_nest_only cfg.directions
                      (List.length got) (List.length want))
              [ ("textual", sites); ("shuffled", shuffled) ])
         pairing_configs)

let test_perfect_site_pairs () =
  List.iter
    (fun (spec : Dda_perfect.Programs.spec) ->
       let sites =
         Affine.extract
           (Dda_passes.Pipeline.run
              (Parser.parse_program (Dda_perfect.Programs.source spec)))
       in
       List.iter
         (fun (cfg : Analyzer.config) ->
            if not (same_pairs (Analyzer.site_pairs cfg sites) (naive_site_pairs cfg sites))
            then
              Alcotest.failf "%s, within_nest_only=%b directions=%b: site_pairs differs \
                              from the all-pairs scan"
                spec.name cfg.within_nest_only cfg.directions)
         pairing_configs)
    Dda_perfect.Programs.all

(* The linter numbers loops in its own walk ([Summary.loop_metas]) and
   reads the analyzer's pair reports by [Affine]'s loop ids: the two
   numberings must agree. Every loop a site sits in is the loop
   [loop_metas] gives that id, at the depth of its place in the site's
   nest, and the ids are 0, 1, ... in pre-order. *)
let prop_loop_ids_agree =
  QCheck.Test.make ~name:"Affine loop ids are Summary.loop_metas's pre-order ids"
    ~count:150 arb_pairing_program
    (fun text ->
       let prepared = Dda_passes.Pipeline.run (Parser.parse_program text) in
       let metas = Array.of_list (Dda_analysis.Summary.loop_metas prepared) in
       Array.iteri
         (fun i (m : Dda_analysis.Summary.loop_meta) ->
            if m.m_lid <> i then
              QCheck.Test.fail_reportf "loop %d of the walk has id %d" i m.m_lid)
         metas;
       List.for_all
         (fun (s : Affine.site) ->
            List.for_all
              (fun (depth, (c : Affine.loop_ctx)) ->
                 (c.lid >= 0 && c.lid < Array.length metas
                  && String.equal metas.(c.lid).m_for.var c.lvar
                  && metas.(c.lid).m_depth = depth)
                 || QCheck.Test.fail_reportf "site %s: loop %s has id %d at depth %d"
                      (Loc.to_string s.site_loc) c.lvar c.lid depth)
              (List.mapi (fun depth c -> (depth, c)) s.loops))
         (Affine.extract prepared))

(* ------------------------------------------------------------------ *)
(* The front end against the hand-written recipe                       *)
(* ------------------------------------------------------------------ *)

(* The oracle: the prepass, extraction and pair enumeration composed by
   hand. *)
let recipe (cfg : Analyzer.config) prog =
  let prepared =
    if cfg.run_pipeline then Dda_passes.Pipeline.run prog else prog
  in
  let sites = Affine.extract ~symbolic:cfg.symbolic prepared in
  (prepared, sites, Analyzer.site_pairs cfg sites)

(* Every combination of the four flags the front end reads. *)
let front_configs =
  let bools = [ false; true ] in
  List.concat_map
    (fun run_pipeline ->
       List.concat_map
         (fun symbolic ->
            List.concat_map
              (fun within_nest_only ->
                 List.map
                   (fun directions ->
                      { Analyzer.default_config with
                        Analyzer.run_pipeline; symbolic; within_nest_only;
                        directions })
                   bools)
              bools)
         bools)
    bools

let arb_front_program =
  let open QCheck.Gen in
  let fuzzed profile =
    map2
      (fun seed index ->
         Parser.parse_program (Dda_perfect.Fuzz.program profile ~seed ~index))
      (int_bound 100_000) (int_bound 5_000)
  in
  QCheck.make ~print:Pretty.program_to_string
    (frequency
       [ (2, Test_support.Gen_ast.gen_affine_nest);
         (2, fuzzed Dda_perfect.Fuzz.Mixed); (1, fuzzed Dda_perfect.Fuzz.Small) ])

let prop_front_end_is_the_recipe =
  QCheck.Test.make ~name:"front_end equals the prepass, extract, site_pairs recipe"
    ~count:100 arb_front_program
    (fun prog ->
       List.for_all
         (fun (cfg : Analyzer.config) ->
            let front = Analyzer.front_end cfg prog in
            let prepared, sites, pairs = recipe cfg prog in
            let holds what ok =
              ok
              || QCheck.Test.fail_reportf
                   "run_pipeline=%b symbolic=%b within_nest_only=%b \
                    directions=%b: %s"
                   cfg.run_pipeline cfg.symbolic cfg.within_nest_only
                   cfg.directions what
            in
            holds "source is the program given" (front.source == prog)
            && holds "prepared is source without the prepass"
                 (cfg.run_pipeline || front.prepared == prog)
            && holds "prepared differs"
                 (Ast.equal_program front.prepared prepared)
            && holds "sites differ" (front.sites = sites)
            && holds "pairs differ" (front.pairs = pairs)
            && holds "pairs are not the front's own sites"
                 (List.for_all
                    (fun (s1, s2) ->
                       List.memq s1 front.sites && List.memq s2 front.sites)
                    front.pairs))
         front_configs)

(* One front read three ways: [Lint.run], [Verify.run] and the batch
   engine's item step each build the program's front on their own, and
   each must give the report, lint summary, findings and diagnostics
   that one front, read directly, gives. *)
let test_perfect_one_front () =
  let config = Analyzer.default_config in
  let items =
    List.map
      (fun (spec : Dda_perfect.Programs.spec) ->
         (spec.name, Parser.parse_program (Dda_perfect.Programs.source spec)))
      Dda_perfect.Programs.all
  in
  let outcomes, _ =
    Dda_engine.Stream.run_programs ~config ~lint:true ~verify:true ~jobs:1
      items
  in
  List.iter2
    (fun (name, program) outcome ->
       let front = Analyzer.front_end config program in
       let report = Analyzer.analyze_sites ~config front.pairs in
       let lint = Dda_analysis.Lint.of_front ~config front report in
       let verification =
         Dda_check.Verify.verify_report ~config front.pairs report
       in
       let report_s r = Json_out.to_string (Json_out.report r) in
       let lint_s l =
         Json_out.to_string (Dda_analysis.Lint.to_json ~file:name l)
       in
       let verify_s v =
         Json_out.to_string (Dda_check.Verify.to_json ~file:name v)
       in
       let same what want got =
         Alcotest.(check string) (name ^ ": " ^ what) want got
       in
       let alone = Dda_analysis.Lint.run ~config program in
       same "Lint.run report" (report_s report) (report_s alone.report);
       same "Lint.run summary and findings" (lint_s lint) (lint_s alone);
       same "Verify.run diagnostics" (verify_s verification)
         (verify_s (Dda_check.Verify.run ~config program));
       match outcome with
       | Dda_engine.Stream.Analyzed
           { report = r; verification = Some v; lint = Some l; _ } ->
         same "batch report" (report_s report) (report_s r);
         same "batch diagnostics" (verify_s verification) (verify_s v);
         same "batch summary and findings" (lint_s lint) (lint_s l)
       | _ -> Alcotest.failf "%s: the batch did not analyze, verify and lint it" name)
    items outcomes

(* Two persistent caches advanced in lockstep over the same programs:
   each call's memo statistics must be that call's own traffic on its
   cache — never polluted by the other cache's interleaved activity —
   and must sum back both to the calls the first cache's tables saw
   and to the process-wide [memo.lookups]/[memo.hits] counters' growth
   over the session. *)
let test_interleaved_session_stats () =
  let config =
    { Analyzer.default_config with Analyzer.memo = Analyzer.Memo_improved }
  in
  let p1 = parse "for i = 1 to 10 do a[i] = a[i+1] + a[2*i] end" in
  let p2 = parse "for i = 1 to 8 do for j = 1 to 8 do b[i+j] = b[i+j+1] end end" in
  (* p1 over other bounds: new full-table keys, the same gcd-table keys *)
  let p3 = parse "for i = 1 to 20 do a[i] = a[i+1] + a[2*i] end" in
  let sequence = [ p1; p2; p1; p3 ] in
  let s1, _ = Dda_cache.Durable.create ~config () in
  let s2, _ = Dda_cache.Durable.create ~config () in
  (* Count s1's traffic per table at the cache interface, apart from
     the analyzer's own counting: a lookup is a [find_or_add_*] call
     or a [probe_full] hit (a probe miss is quiet). *)
  let gcd_lookups = ref 0 and gcd_hits = ref 0 in
  let full_lookups = ref 0 and full_hits = ref 0 in
  let cache1 =
    let base = Dda_cache.Durable.cache s1 in
    let tally lookups hits ((_, hit) as r) =
      incr lookups;
      if hit then incr hits;
      r
    in
    {
      base with
      Analyzer.find_or_add_gcd =
        (fun key compute ->
           tally gcd_lookups gcd_hits (base.Analyzer.find_or_add_gcd key compute));
      find_or_add_full =
        (fun key compute ->
           tally full_lookups full_hits (base.Analyzer.find_or_add_full key compute));
      probe_full =
        (fun key ->
           match base.Analyzer.probe_full key with
           | Some _ as hit ->
             incr full_lookups;
             incr full_hits;
             hit
           | None -> None);
    }
  in
  let before = Dda_obs.Metrics.snapshot () in
  let calls =
    List.map
      (fun p ->
         let r1 = Analyzer.analyze ~config ~cache:cache1 p in
         let r2 =
           Analyzer.analyze ~config ~cache:(Dda_cache.Durable.cache s2) p
         in
         (r1.Analyzer.stats, r2.Analyzer.stats))
      sequence
  in
  List.iteri
    (fun i ((a : Analyzer.stats), (b : Analyzer.stats)) ->
       Alcotest.(check int)
         (Printf.sprintf "call %d: same full-table lookups either cache" i)
         a.memo_lookups_full b.memo_lookups_full;
       Alcotest.(check int)
         (Printf.sprintf "call %d: same full-table hits either cache" i)
         a.memo_hits_full b.memo_hits_full;
       Alcotest.(check int)
         (Printf.sprintf "call %d: same gcd-table lookups either cache" i)
         a.memo_lookups_nobounds b.memo_lookups_nobounds;
       Alcotest.(check int)
         (Printf.sprintf "call %d: same gcd-table hits either cache" i)
         a.memo_hits_nobounds b.memo_hits_nobounds)
    calls;
  (* Re-analyzing p1 must hit on every single case: a cumulative (or
     cross-contaminated) delta would break one of these equalities. *)
  (match (List.nth calls 0, List.nth calls 2) with
   | (first, _), (again, _) ->
     Alcotest.(check int) "same work both times p1 is analyzed"
       first.Analyzer.memo_lookups_full again.Analyzer.memo_lookups_full;
     Alcotest.(check int) "second pass over p1 hits every case"
       again.Analyzer.memo_lookups_full again.Analyzer.memo_hits_full;
     Alcotest.(check bool) "first pass over p1 missed at least once" true
       (first.Analyzer.memo_hits_full < first.Analyzer.memo_lookups_full));
  let after = Dda_obs.Metrics.snapshot () in
  let delta name =
    Dda_obs.Metrics.find_counter after name
    - Dda_obs.Metrics.find_counter before name
  in
  let sum1 f = List.fold_left (fun acc (a, _) -> acc + f a) 0 calls in
  Alcotest.(check bool) "p1 over other bounds hit the gcd table" true
    (!gcd_hits > 0);
  Alcotest.(check int) "per-call full lookups sum to the table's traffic"
    !full_lookups (sum1 (fun (s : Analyzer.stats) -> s.memo_lookups_full));
  Alcotest.(check int) "per-call full hits sum to the table's traffic"
    !full_hits (sum1 (fun (s : Analyzer.stats) -> s.memo_hits_full));
  Alcotest.(check int) "per-call gcd lookups sum to the table's traffic"
    !gcd_lookups (sum1 (fun (s : Analyzer.stats) -> s.memo_lookups_nobounds));
  Alcotest.(check int) "per-call gcd hits sum to the table's traffic"
    !gcd_hits (sum1 (fun (s : Analyzer.stats) -> s.memo_hits_nobounds));
  let sum f = List.fold_left (fun acc (a, b) -> acc + f a + f b) 0 calls in
  Alcotest.(check int) "per-call lookups sum to the lifetime counter"
    (sum (fun (s : Analyzer.stats) -> s.memo_lookups_full + s.memo_lookups_nobounds))
    (delta "memo.lookups");
  Alcotest.(check int) "per-call hits sum to the lifetime counter"
    (sum (fun (s : Analyzer.stats) -> s.memo_hits_full + s.memo_hits_nobounds))
    (delta "memo.hits");
  (* Lockstep caches end holding the same entries. *)
  Alcotest.(check (pair int int)) "lifetime entries equal across caches"
    (Dda_cache.Durable.table_sizes s1) (Dda_cache.Durable.table_sizes s2)

(* Two queries on one shared cache at once, as two serve workers on
   one durable store: the cache below starts a second analysis on the
   same tables inside the first query's first miss. The outer report's
   lookups and hits must be its own — equal to a solo run's on fresh
   tables — however many lookups the inner query made meanwhile. *)
let test_nested_query_keeps_its_memo_counts () =
  let config = Analyzer.default_config in
  let outer = parse "for i = 1 to 10 do a[i] = a[i+1] + a[2*i] end" in
  let inner =
    parse
      "for i = 1 to 8 do for j = 1 to 8 do\n\
      \  d[3*i+5*j+7] = d[5*i+3*j+2] + e[7*i][j]\n\
      \  e[7*i+3][j+4] = d[i]\n\
       end end"
  in
  let fresh () = Analyzer.shared_cache (Analyzer.create_shared ()) in
  let solo = (Analyzer.analyze ~config ~cache:(fresh ()) outer).Analyzer.stats in
  let base = fresh () in
  let inner_stats = ref None in
  let cache =
    {
      base with
      Analyzer.find_or_add_full =
        (fun key compute ->
           base.Analyzer.find_or_add_full key (fun () ->
               if !inner_stats = None then
                 inner_stats :=
                   Some (Analyzer.analyze ~config ~cache:base inner).Analyzer.stats;
               compute ()));
    }
  in
  let got = (Analyzer.analyze ~config ~cache outer).Analyzer.stats in
  (match !inner_stats with
   | Some (s : Analyzer.stats) ->
     Alcotest.(check bool) "the inner query used the tables" true
       (s.memo_lookups_full > 0 && s.memo_lookups_nobounds > 0)
   | None -> Alcotest.fail "the outer query never missed");
  let same what f = Alcotest.(check int) what (f solo) (f got) in
  same "full-table lookups" (fun (s : Analyzer.stats) -> s.memo_lookups_full);
  same "full-table hits" (fun (s : Analyzer.stats) -> s.memo_hits_full);
  same "gcd-table lookups" (fun (s : Analyzer.stats) -> s.memo_lookups_nobounds);
  same "gcd-table hits" (fun (s : Analyzer.stats) -> s.memo_hits_nobounds)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "analyzer"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "intro independent" `Quick test_intro_independent;
          Alcotest.test_case "intro dependent" `Quick test_intro_dependent;
          Alcotest.test_case "intro plain mode" `Quick test_intro_plain_mode;
          Alcotest.test_case "coupled svpc (s3.2)" `Quick test_coupled_svpc_example;
          Alcotest.test_case "write 2i (s6)" `Quick test_section6_write_2i;
          Alcotest.test_case "constant subscripts" `Quick test_constant_subscripts;
          Alcotest.test_case "symbolic (s8)" `Quick test_symbolic_section8;
          Alcotest.test_case "symbolic exact independence" `Quick
            test_symbolic_exact_independence;
          Alcotest.test_case "symbolic versioning" `Quick test_symbolic_versioning;
          Alcotest.test_case "distance not constant (s6)" `Quick
            test_distance_not_constant;
          Alcotest.test_case "control flow conservative" `Quick
            test_control_flow_conservative;
          Alcotest.test_case "parallel loops client" `Quick test_doall_loops_client;
          Alcotest.test_case "self pair output dependence" `Quick
            test_self_pair_output_dependence;
          Alcotest.test_case "triangular bounds" `Quick test_triangular_bounds;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "interleaved sessions keep per-call deltas" `Quick
            test_interleaved_session_stats;
          Alcotest.test_case "a nested query keeps its memo counts" `Quick
            test_nested_query_keeps_its_memo_counts;
        ] );
      ( "oracle-properties",
        [
          qt prop_analyzer_exact;
          qt prop_memo_transparent;
          qt prop_pruning_sound;
          qt prop_first_difference_cells;
          qt prop_symbolic_sound_for_all_inputs;
          qt prop_plain_verdict_matches_oracle;
          qt prop_site_pairs_match_naive;
          qt prop_loop_ids_agree;
          qt prop_front_end_is_the_recipe;
        ] );
      ( "site-pairs",
        [
          Alcotest.test_case "PERFECT programs match the all-pairs scan" `Quick
            test_perfect_site_pairs;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "PERFECT: lint, verify and batch read one front"
            `Quick test_perfect_one_front;
        ] );
    ]
