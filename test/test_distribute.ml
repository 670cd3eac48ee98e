(* Allen-Kennedy loop distribution: unit tests on textbook shapes, and
   the execution-validated property — applying a computed distribution
   plan (and reversing its parallel groups) must leave final memory
   identical. *)

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

let plan_of src ~lid =
  let prog = parse src in
  let report = Analyzer.analyze ~config prog in
  match Distribute.body_stmts prog ~lid with
  | None -> Alcotest.fail "loop body not distributable"
  | Some stmts -> (prog, Distribute.plan_loop report ~lid ~stmts)

let shape (plan : Distribute.plan) =
  List.map (fun (g : Distribute.group) -> (List.length g.stmts, g.parallel)) plan.groups

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_fission () =
  (* Classic fission: the (<) flow from statement 1 to statement 2 is
     satisfied by running loop 1 entirely before loop 2; both halves
     are then parallel. *)
  let _, plan =
    plan_of "for i = 1 to 20 do\n  a[i] = b[i] + 1\n  c[i] = a[i - 1] * 2\nend" ~lid:0
  in
  Alcotest.(check (list (pair int bool))) "two parallel groups"
    [ (1, true); (1, true) ] (shape plan)

let test_cycle_stays_together () =
  let _, plan =
    plan_of "for i = 2 to 20 do\n  a[i] = b[i - 1]\n  b[i] = a[i - 1]\nend" ~lid:0
  in
  Alcotest.(check (list (pair int bool))) "one serial group of two"
    [ (2, false) ] (shape plan)

let test_loop_independent_order () =
  let _, plan =
    plan_of "for i = 1 to 20 do\n  t2[i] = s2[i]\n  u2[i] = t2[i]\nend" ~lid:0
  in
  (match shape plan with
   | [ (1, true); (1, true) ] -> ()
   | s ->
     Alcotest.failf "unexpected shape: %s"
       (String.concat ";" (List.map (fun (n, p) -> Printf.sprintf "(%d,%b)" n p) s)));
  (* Producer first. *)
  match plan.groups with
  | [ g1; g2 ] ->
    Alcotest.(check bool) "producer before consumer" true
      (Loc.compare (List.hd g1.stmts) (List.hd g2.stmts) < 0)
  | _ -> Alcotest.fail "expected two groups"

let test_recurrence_serial_group () =
  let _, plan =
    plan_of "for i = 2 to 20 do\n  r[i] = r[i - 1] + 1\n  q[i] = r[i] * 2\nend" ~lid:0
  in
  Alcotest.(check (list (pair int bool))) "serial recurrence, parallel consumer"
    [ (1, false); (1, true) ] (shape plan)

let test_inner_loop_of_nest () =
  (* Distribute the innermost loop of a 2-nest: the outer-carried
     dependence does not constrain it. *)
  let src =
    "for i = 2 to 10 do\n\
    \  for j = 1 to 10 do\n\
    \    aa[i][j] = aa[i - 1][j] + 1\n\
    \    bb[i][j] = aa[i][j] * 2\n\
    \  end\n\
     end"
  in
  let _, plan = plan_of src ~lid:1 in
  (* aa dependence is carried by i (outer): irrelevant at j's level
     except the loop-independent flow aa[i][j] -> read in stmt 2. *)
  Alcotest.(check (list (pair int bool))) "two parallel groups at j"
    [ (1, true); (1, true) ] (shape plan)

let test_body_stmts_guards () =
  let prog = parse "for i = 1 to 5 do\n  t = i\n  a[i] = t\nend" in
  Alcotest.(check bool) "scalar assignment rejected" true
    (Distribute.body_stmts prog ~lid:0 = None);
  let prog2 = parse "for i = 1 to 5 do\n  for j = 1 to 5 do aa[i][j] = 1 end\nend" in
  Alcotest.(check bool) "nested loop rejected" true
    (Distribute.body_stmts prog2 ~lid:0 = None);
  Alcotest.(check bool) "missing loop" true (Distribute.body_stmts prog2 ~lid:7 = None)

let test_apply_fission () =
  let prog, plan =
    plan_of "for i = 1 to 20 do\n  a[i] = b[i] + 1\n  c[i] = a[i - 1] * 2\nend" ~lid:0
  in
  match Distribute.apply prog plan with
  | None -> Alcotest.fail "apply failed"
  | Some distributed ->
    Alcotest.(check int) "two loops now" 2 (List.length distributed);
    let m1 = (fst (Interp.final_state prog)).Interp.memory in
    let m2 = (fst (Interp.final_state distributed)).Interp.memory in
    Alcotest.(check bool) "same memory" true (m1 = m2)

(* ------------------------------------------------------------------ *)
(* Execution-validated property                                        *)
(* ------------------------------------------------------------------ *)

let innermost_lid prog =
  (* Pre-order numbering: for a single nest the innermost loop has the
     largest id. *)
  let count = ref 0 in
  Ast.iter_stmts
    (fun s -> match s.Ast.sdesc with Ast.For _ -> incr count | _ -> ())
    prog;
  !count - 1

let reverse_loop_at (prog : Ast.program) loc =
  let rec rw (s : Ast.stmt) =
    match s.sdesc with
    | Ast.For f when Loc.equal s.sloc loc ->
      { s with sdesc = Ast.For { f with lo = f.hi; hi = f.lo; step = Some (Ast.int_ (-1)) } }
    | Ast.For f -> { s with sdesc = Ast.For { f with body = List.map rw f.body } }
    | Ast.If (c, t, e) -> { s with sdesc = Ast.If (c, List.map rw t, List.map rw e) }
    | Ast.Assign _ | Ast.Read _ -> s
  in
  List.map rw prog

let prop_distribution_preserves_memory =
  QCheck.Test.make
    ~name:"a distribution plan (with parallel groups reversed) preserves memory"
    ~count:250 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let lid = innermost_lid prog in
       match Distribute.body_stmts prog ~lid with
       | None -> QCheck.assume_fail ()
       | Some stmts ->
         let report = Analyzer.analyze ~config prog in
         let plan = Distribute.plan_loop report ~lid ~stmts in
         (match Distribute.apply prog plan with
          | None -> QCheck.assume_fail ()
          | Some distributed ->
            let mem p = (fst (Interp.final_state p)).Interp.memory in
            let base = mem prog in
            if mem distributed <> base then
              QCheck.Test.fail_reportf "distribution changed memory"
            else if lid <> 0 then true
              (* Deeper nests: the distributed copies are inside the
                 outer loops; the memory check above is the claim. *)
            else begin
              (* Depth-1 nests: the distributed loops are exactly the
                 top level in group order. Reversing a parallel group's
                 loop must also be safe. *)
              let loops =
                List.filter
                  (fun (s : Ast.stmt) ->
                     match s.sdesc with Ast.For _ -> true | _ -> false)
                  distributed
              in
              let prog_loops = List.combine plan.groups loops in
              List.for_all
                (fun ((g : Distribute.group), (loop : Ast.stmt)) ->
                   (not g.parallel)
                   || mem (reverse_loop_at distributed loop.Ast.sloc) = base)
                prog_loops
            end))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "distribute"
    [
      ( "unit",
        [
          Alcotest.test_case "fission" `Quick test_fission;
          Alcotest.test_case "cycle stays together" `Quick test_cycle_stays_together;
          Alcotest.test_case "loop-independent order" `Quick test_loop_independent_order;
          Alcotest.test_case "recurrence serial group" `Quick test_recurrence_serial_group;
          Alcotest.test_case "inner loop of nest" `Quick test_inner_loop_of_nest;
          Alcotest.test_case "guards" `Quick test_body_stmts_guards;
          Alcotest.test_case "apply fission" `Quick test_apply_fission;
        ] );
      ("property", [ qt prop_distribution_preserves_memory ]);
    ]
