(* Optimizer pass tests. The master property: every pass (and the whole
   pipeline) preserves the program's final state and its array access
   trace — checked against the reference interpreter on random
   programs. Unit tests pin the specific rewrites the paper relies on,
   including the section 8 induction-variable example. *)

open Dda_lang
open Dda_passes

let parse = Parser.parse_program
let program = Alcotest.testable Pretty.pp_program Ast.equal_program

(* The final value of a scalar after running the program. *)
let scalar_value ?inputs prog name =
  List.assoc_opt name (fst (Interp.final_state ?inputs prog)).Interp.scalars

(* Observable behaviour: final state plus the (array, indices, role)
   trace; locations and iteration vectors may legitimately change. *)
let observe ?inputs prog =
  let state, trace = Interp.final_state ?inputs prog in
  (* Compiler-generated loop counters are not observable state. *)
  let scalars =
    List.filter (fun (name, _) -> not (Normalize.is_temp_name name)) state.scalars
  in
  ( scalars,
    state.memory,
    List.map (fun (a : Interp.access) -> (a.array, a.indices, a.role)) trace )

let check_equivalent ?inputs name before after =
  let sb = observe ?inputs before and sa = observe ?inputs after in
  Alcotest.(check bool) (name ^ ": same behaviour") true (sb = sa)

(* ------------------------------------------------------------------ *)
(* Constant propagation                                                *)
(* ------------------------------------------------------------------ *)

let test_cp_straight_line () =
  let prog = parse "n = 100\nm = n + 1\na[m] = a[n] + m" in
  let expected = parse "n = 100\nm = 101\na[101] = a[100] + 101" in
  Alcotest.check program "folded" expected (Const_prop.run prog)

let test_cp_kill_on_read () =
  let prog = parse "n = 5\nread(n)\na[n] = 1" in
  let expected = parse "n = 5\nread(n)\na[n] = 1" in
  Alcotest.check program "read kills" expected (Const_prop.run prog)

let test_cp_kill_in_loop () =
  (* t is reassigned inside the loop, so its uses there can't fold. *)
  let prog = parse "t = 1\nfor i = 1 to 10 do\n  a[t] = 1\n  t = t + 1\nend" in
  Alcotest.check program "loop kills" prog (Const_prop.run prog)

let test_cp_if_merge () =
  let prog =
    parse
      "t = 1\nu = 2\nread(n)\nif n > 0 then t = 3 else t = 3 end\na[t][u] = 1"
  in
  let result = Const_prop.run prog in
  (* Both branches set t = 3, u untouched: both fold after the if. *)
  let expected =
    parse
      "t = 1\nu = 2\nread(n)\nif n > 0 then t = 3 else t = 3 end\na[3][2] = 1"
  in
  Alcotest.check program "merged" expected result

let test_cp_if_no_merge () =
  let prog = parse "read(n)\nt = 1\nif n > 0 then t = 3 end\na[t] = 1" in
  Alcotest.check program "divergent branches don't fold" prog (Const_prop.run prog)

let test_cp_bounds () =
  let prog = parse "n = 10\nfor i = 1 to n do a[i] = 1 end" in
  let expected = parse "n = 10\nfor i = 1 to 10 do a[i] = 1 end" in
  Alcotest.check program "bounds folded" expected (Const_prop.run prog)

(* ------------------------------------------------------------------ *)
(* Forward substitution                                                *)
(* ------------------------------------------------------------------ *)

let test_fs_basic () =
  let prog = parse "read(n)\nm = n + 1\nfor i = 1 to 10 do a[m + i] = a[i] end" in
  let result = Forward_subst.run prog in
  let expected =
    parse "read(n)\nm = n + 1\nfor i = 1 to 10 do a[n + i + 1] = a[i] end"
  in
  Alcotest.check program "substituted" expected result

let test_fs_kill_on_redef () =
  let prog = parse "read(n)\nm = n + 1\nread(n)\na[m] = 1" in
  let result = Forward_subst.run prog in
  (* n changed after m's definition: m must NOT be rewritten to n + 1. *)
  Alcotest.check program "killed binding" prog result

let test_fs_no_self_reference () =
  let prog = parse "read(n)\nm = m + 1\na[m] = 1" in
  Alcotest.check program "self-referential def not bound" prog
    (Forward_subst.run prog)

let test_fs_chain () =
  let prog = parse "read(n)\nm = n + 1\nt = m * 2\na[t] = 1" in
  let result = Forward_subst.run prog in
  let expected = parse "read(n)\nm = n + 1\nt = 2 * n + 2\na[2 * n + 2] = 1" in
  Alcotest.check program "chained" expected result

(* ------------------------------------------------------------------ *)
(* Induction-variable substitution                                     *)
(* ------------------------------------------------------------------ *)

(* The paper's section 8 example: after the full pipeline, subscripts
   are affine in i and iz is gone from the loop body. *)
let test_induction_paper_example () =
  let prog =
    parse
      "n = 100\n\
       iz = 0\n\
       for i = 1 to 10 do\n\
      \  iz = iz + 2\n\
      \  a[iz + n] = a[iz + 2 * n + 1] + 3\n\
       end"
  in
  let result = Pipeline.run prog in
  check_equivalent "paper s8" prog result;
  (* iz must not appear in any remaining subscript. *)
  let refs = Ast.array_refs result in
  List.iter
    (fun (_, subs, _, _) ->
       List.iter
         (fun sub ->
            Alcotest.(check bool) "no iz in subscripts" false
              (Expr_util.uses_var "iz" sub))
         subs)
    refs;
  (* The subscripts the paper reports: 2i + 100 reads/writes. Check by
     evaluating the write subscript at i = 1 .. 3 via the trace. *)
  let writes =
    List.filter (fun (a : Interp.access) -> a.role = `Write) (Interp.run result)
  in
  List.iteri
    (fun k (a : Interp.access) ->
       Alcotest.(check (list int)) "write index 2i+100" [ (2 * (k + 1)) + 100 ] a.indices)
    writes

let test_induction_decrement () =
  let prog = parse "iz = 20\nfor i = 1 to 5 do\n  iz = iz - 3\n  a[iz] = 1\nend" in
  let result = Induction.run prog in
  check_equivalent "decrement" prog result;
  Alcotest.(check (option int)) "final iz" (Some 5) (scalar_value result "iz")

let test_induction_use_before_increment () =
  let prog =
    parse "iz = 0\nfor i = 1 to 5 do\n  a[iz] = 1\n  iz = iz + 1\n  b[iz] = 2\nend"
  in
  let result = Induction.run prog in
  check_equivalent "use before and after" prog result

let test_induction_symbolic_base () =
  (* Entry value unknown (read): uses become iz + 2*(i - 1) style with
     iz as a symbolic base; semantics preserved for any input. *)
  let prog = parse "read(iz)\nfor i = 1 to 5 do\n  iz = iz + 2\n  a[iz] = 1\nend" in
  let result = Induction.run prog in
  check_equivalent ~inputs:[ ("iz", 7) ] "symbolic base" prog result;
  (* The increment statement is gone from the loop body. *)
  (match
     List.find_map
       (fun (s : Ast.stmt) ->
          match s.sdesc with Ast.For f -> Some f.body | _ -> None)
       result
   with
   | Some body ->
     Alcotest.(check int) "increment removed" 0 (Expr_util.assigned_vars body |> List.length)
   | None -> Alcotest.fail "loop missing")

let test_induction_zero_trip () =
  let prog = parse "iz = 5\nread(n)\nfor i = 1 to n do\n  iz = iz + 1\n  a[iz] = 1\nend" in
  let result = Induction.run prog in
  (* Zero-trip execution must leave iz = 5. *)
  check_equivalent ~inputs:[ ("n", 0) ] "zero trips" prog result;
  check_equivalent ~inputs:[ ("n", 3) ] "three trips" prog result

let test_induction_skips_conditional_increment () =
  let prog =
    parse
      "iz = 0\nread(n)\nfor i = 1 to 5 do\n  if i < n then iz = iz + 1 end\n  a[iz] = 1\nend"
  in
  (* The increment is conditional: not a valid candidate. *)
  Alcotest.check program "left alone" prog (Induction.run prog);
  check_equivalent ~inputs:[ ("n", 3) ] "still equivalent" prog (Induction.run prog)

let test_induction_two_variables () =
  let prog =
    parse
      "iz = 0\nju = 100\nfor i = 1 to 4 do\n  iz = iz + 1\n  ju = ju - 2\n  a[iz][ju] = 1\nend"
  in
  let result = Induction.run prog in
  check_equivalent "two induction vars" prog result

(* ------------------------------------------------------------------ *)
(* Loop normalization                                                  *)
(* ------------------------------------------------------------------ *)

let test_normalize_positive_step () =
  let prog = parse "for i = 1 to 10 step 2 do a[i] = i end" in
  let result = Normalize.run prog in
  check_equivalent "step 2" prog result;
  (* Result: a guard whose then-branch starts with a unit-step loop
     from 0. *)
  (match result with
   | { sdesc = Ast.If (_, { sdesc = Ast.For { lo; step; _ }; _ } :: _, []); _ } :: _ ->
     Alcotest.(check bool) "lo = 0" true (Ast.equal_expr lo (Ast.int_ 0));
     Alcotest.(check bool) "unit step" true (step = None)
   | _ -> Alcotest.fail "expected guarded loop first");
  Alcotest.(check (option int)) "final i (last executed)" (Some 9)
    (scalar_value result "i")

let test_normalize_negative_step () =
  let prog = parse "for i = 10 to 1 step -3 do a[i] = i end" in
  let result = Normalize.run prog in
  check_equivalent "step -3" prog result

let test_normalize_zero_trip () =
  let prog = parse "i = 42\nfor i = 10 to 1 step 2 do a[i] = i end" in
  let result = Normalize.run prog in
  check_equivalent "zero trip up" prog result;
  Alcotest.(check (option int)) "i untouched" (Some 42) (scalar_value result "i")

let test_normalize_symbolic_bounds () =
  let prog = parse "read(n)\nfor i = 1 to n step 2 do a[i] = i end" in
  let result = Normalize.run prog in
  List.iter
    (fun n -> check_equivalent ~inputs:[ ("n", n) ] "symbolic bound" prog result)
    [ -3; 0; 1; 2; 7; 10 ]

let test_normalize_unit_step_annotation () =
  let prog = parse "for i = 1 to 5 step 1 do a[i] = i end" in
  let expected = parse "for i = 1 to 5 do a[i] = i end" in
  Alcotest.check program "step 1 dropped" expected (Normalize.run prog)

let test_normalize_nested () =
  let prog =
    parse
      "for i = 0 to 8 step 2 do\n  for j = 8 to 0 step -2 do\n    a[i][j] = i + j\n  end\nend"
  in
  check_equivalent "nested" prog (Normalize.run prog)

(* ------------------------------------------------------------------ *)
(* Native overflow                                                     *)
(* ------------------------------------------------------------------ *)

(* Rewrites that would wrap a native int are refused, so a rewritten
   expression keeps its exact value: checked in Zint at a few points
   for [x]. 4611686018427387903 is max_int. *)
let rec zeval x (e : Ast.expr) =
  let module Z = Dda_numeric.Zint in
  match e.desc with
  | Ast.Int n -> Z.of_int n
  | Ast.Var _ -> x
  | Ast.Neg a -> Z.neg (zeval x a)
  | Ast.Bin (Ast.Add, a, b) -> Z.add (zeval x a) (zeval x b)
  | Ast.Bin (Ast.Sub, a, b) -> Z.sub (zeval x a) (zeval x b)
  | Ast.Bin (Ast.Mul, a, b) -> Z.mul (zeval x a) (zeval x b)
  | Ast.Bin (Ast.Div, _, _) | Ast.Aref _ -> invalid_arg "zeval"

let test_no_wrap () =
  List.iter
    (fun (name, rewrite, text) ->
       let e = Parser.parse_expr text in
       let e' = rewrite e in
       List.iter
         (fun x ->
            let x = Dda_numeric.Zint.of_int x in
            Alcotest.(check string)
              (Format.asprintf "%s: %s -> %a" name text Pretty.pp_expr e')
              (Dda_numeric.Zint.to_string (zeval x e))
              (Dda_numeric.Zint.to_string (zeval x e')))
         [ 1; -1; 3 ])
    [
      ("fold add", Expr_util.const_fold, "4611686018427387903 + 1");
      ("fold sub", Expr_util.const_fold, "0 - 4611686018427387903 - 2");
      ("fold to min_int", Expr_util.const_fold, "0 - 4611686018427387903 - 1");
      ("fold mul", Expr_util.const_fold, "4611686018427387903 * 2");
      ("fold negation", Expr_util.const_fold, "-(0 - 4611686018427387903 - 1)");
      ("constant", Expr_util.linearize, "x + 4611686018427387903 + 1");
      ("sign * k", Expr_util.linearize, "2 * (4611686018427387903 * x)");
      ( "coefficient merge",
        Expr_util.linearize,
        "4611686018427387903 * x + 4611686018427387903 * x" );
      ("negated constant", Expr_util.linearize, "x - 4611686018427387903 - 1");
    ];
  let e = Parser.parse_expr "x + 4611686018427387903 - 1" in
  Alcotest.(check string) "in range still rewrites" "x + 4611686018427387902"
    (Format.asprintf "%a" Pretty.pp_expr (Expr_util.linearize e))

(* ------------------------------------------------------------------ *)
(* Pipeline properties                                                 *)
(* ------------------------------------------------------------------ *)

let runs_cleanly prog =
  match Interp.final_state prog with
  | _ -> true
  | exception Interp.Runtime_error _ -> false

let prop_pass_preserves name pass =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s preserves state and trace" name)
    ~count:300 Test_support.Gen_ast.arb_program
    (fun prog ->
       QCheck.assume (runs_cleanly prog);
       let after = pass prog in
       observe prog = observe after)

let prop_pipeline_idempotent =
  QCheck.Test.make ~name:"pipeline is idempotent" ~count:150
    Test_support.Gen_ast.arb_program
    (fun prog ->
       QCheck.assume (runs_cleanly prog);
       let once = Pipeline.run prog in
       Ast.equal_program once (Pipeline.run once))

(* What lets the pipeline skip forward substitution on a program that
   assigns no scalar: canonical form is a fixed point, and reaching it
   again allocates nothing new. *)
let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent, == on canonical input"
    ~count:500
    (QCheck.make ~print:Pretty.expr_to_string (Test_support.Gen_ast.gen_expr 4))
    (fun e ->
       let c = Expr_util.canonicalize e in
       Expr_util.canonicalize c == c)

(* With no scalar assignment, forward substitution returns constant
   propagation's output unchanged, so skipping it changes nothing. *)
let prop_forward_subst_idle =
  QCheck.Test.make
    ~name:"forward-subst returns const-prop's output == when nothing is assigned"
    ~count:300
    (QCheck.oneof
       [ Test_support.Gen_ast.arb_affine_nest; Test_support.Gen_ast.arb_program ])
    (fun prog ->
       QCheck.assume (not (Forward_subst.substitutes prog));
       let cp = Const_prop.run prog in
       Forward_subst.run cp == cp)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "passes"
    [
      ( "const-prop",
        [
          Alcotest.test_case "straight line" `Quick test_cp_straight_line;
          Alcotest.test_case "kill on read" `Quick test_cp_kill_on_read;
          Alcotest.test_case "kill in loop" `Quick test_cp_kill_in_loop;
          Alcotest.test_case "if merge" `Quick test_cp_if_merge;
          Alcotest.test_case "if no merge" `Quick test_cp_if_no_merge;
          Alcotest.test_case "bounds" `Quick test_cp_bounds;
        ] );
      ( "forward-subst",
        [
          Alcotest.test_case "basic" `Quick test_fs_basic;
          Alcotest.test_case "kill on redef" `Quick test_fs_kill_on_redef;
          Alcotest.test_case "no self reference" `Quick test_fs_no_self_reference;
          Alcotest.test_case "chain" `Quick test_fs_chain;
        ] );
      ( "induction",
        [
          Alcotest.test_case "paper s8 example" `Quick test_induction_paper_example;
          Alcotest.test_case "decrement" `Quick test_induction_decrement;
          Alcotest.test_case "use before increment" `Quick test_induction_use_before_increment;
          Alcotest.test_case "symbolic base" `Quick test_induction_symbolic_base;
          Alcotest.test_case "zero trip" `Quick test_induction_zero_trip;
          Alcotest.test_case "conditional increment skipped" `Quick
            test_induction_skips_conditional_increment;
          Alcotest.test_case "two variables" `Quick test_induction_two_variables;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "positive step" `Quick test_normalize_positive_step;
          Alcotest.test_case "negative step" `Quick test_normalize_negative_step;
          Alcotest.test_case "zero trip" `Quick test_normalize_zero_trip;
          Alcotest.test_case "symbolic bounds" `Quick test_normalize_symbolic_bounds;
          Alcotest.test_case "unit step annotation" `Quick test_normalize_unit_step_annotation;
          Alcotest.test_case "nested" `Quick test_normalize_nested;
        ] );
      ("overflow", [ Alcotest.test_case "no wrap" `Quick test_no_wrap ]);
      ( "properties",
        List.map (fun (n, p) -> qt (prop_pass_preserves n p)) Pipeline.passes
        @ [
            qt (prop_pass_preserves "pipeline" Pipeline.run);
            qt prop_pipeline_idempotent;
            qt prop_canonicalize_idempotent;
            qt prop_forward_subst_idle;
          ] );
    ]
