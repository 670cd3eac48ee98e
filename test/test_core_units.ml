(* Unit tests for the core's supporting modules: symbolic linear
   expressions, the memo hash table, the Extended GCD reduction's affine
   map, problem construction from sites, and canonicalization. *)

open Dda_numeric
open Dda_lang
open Dda_core

let z = Zint.of_int
let zint = Alcotest.testable Zint.pp Zint.equal
let symexpr = Alcotest.testable Symexpr.pp Symexpr.equal

(* ------------------------------------------------------------------ *)
(* Symexpr                                                             *)
(* ------------------------------------------------------------------ *)

let test_symexpr_algebra () =
  let open Symexpr in
  let e = add (scale (z 2) (var "i")) (of_int 3) in
  Alcotest.check zint "coeff i" (z 2) (coeff e "i");
  Alcotest.check zint "coeff j" Zint.zero (coeff e "j");
  Alcotest.check zint "const" (z 3) (const_part e);
  Alcotest.check symexpr "x - x = 0" zero (sub (var "x") (var "x"));
  Alcotest.check symexpr "assoc"
    (add (var "a") (add (var "b") (of_int 1)))
    (add (add (var "a") (var "b")) (of_int 1));
  Alcotest.(check (list string)) "vars sorted" [ "a"; "b" ]
    (vars (add (var "b") (var "a")));
  Alcotest.(check bool) "is_const" true (is_const (of_int 7));
  Alcotest.(check bool) "not is_const" false (is_const (var "x"))

let test_symexpr_mul_div () =
  let open Symexpr in
  let e = add (scale (z 2) (var "i")) (of_int 4) in
  (match mul (of_int 3) e with
   | Some p ->
     Alcotest.check zint "3*(2i+4) coeff" (z 6) (coeff p "i");
     Alcotest.check zint "3*(2i+4) const" (z 12) (const_part p)
   | None -> Alcotest.fail "const mul should work");
  Alcotest.(check bool) "var*var not affine" true (mul (var "i") (var "j") = None);
  (match div_exact e (z 2) with
   | Some d ->
     Alcotest.check zint "(2i+4)/2 coeff" Zint.one (coeff d "i");
     Alcotest.check zint "(2i+4)/2 const" (z 2) (const_part d)
   | None -> Alcotest.fail "exact div should work");
  Alcotest.(check bool) "(2i+3)/2 inexact" true
    (div_exact (add (scale (z 2) (var "i")) (of_int 3)) (z 2) = None)

let test_symexpr_eval_subst () =
  let open Symexpr in
  let e = add (scale (z 2) (var "i")) (sub (var "j") (of_int 5)) in
  let lookup = function "i" -> z 3 | "j" -> z 10 | _ -> Zint.zero in
  Alcotest.check zint "eval" (z 11) (eval lookup e);
  let e' = subst "i" (add (var "k") (of_int 1)) e in
  Alcotest.check zint "subst coeff k" (z 2) (coeff e' "k");
  Alcotest.check zint "subst const" (z (-3)) (const_part e');
  Alcotest.check zint "subst leaves j" Zint.one (coeff e' "j")

let test_symexpr_of_ast () =
  let classify = function "i" | "j" | "n" as v -> v | _ -> "" in
  let conv src = Symexpr.of_ast ~classify (Parser.parse_expr src) in
  (match conv "2 * i + j - 3" with
   | Some e ->
     Alcotest.check zint "2i" (z 2) (Symexpr.coeff e "i");
     Alcotest.check zint "j" Zint.one (Symexpr.coeff e "j");
     Alcotest.check zint "-3" (z (-3)) (Symexpr.const_part e)
   | None -> Alcotest.fail "affine expr");
  Alcotest.(check bool) "i*j rejected" true (conv "i * j" = None);
  Alcotest.(check bool) "array ref rejected" true (conv "a[i]" = None);
  Alcotest.(check bool) "bad scalar rejected" true (conv "i + q" = None);
  (match conv "(4 * i + 8) / 4" with
   | Some e -> Alcotest.check zint "exact div" Zint.one (Symexpr.coeff e "i")
   | None -> Alcotest.fail "exact div should convert");
  Alcotest.(check bool) "inexact div rejected" true (conv "(4 * i + 3) / 4" = None);
  Alcotest.(check bool) "div by zero rejected" true (conv "i / 0" = None);
  (match conv "-(i - n)" with
   | Some e ->
     Alcotest.check zint "neg distributes" Zint.minus_one (Symexpr.coeff e "i");
     Alcotest.check zint "neg distributes n" Zint.one (Symexpr.coeff e "n")
   | None -> Alcotest.fail "negation")

(* The conversion as it was before it accumulated in one walk: a form
   per AST node from the algebra, then the symbolic terms renamed to
   their versioned names in a second pass over the result. Kept as the
   oracle the one-pass [Symexpr.of_ast] must agree with. *)
module Oracle_symexpr = struct
  open Symexpr

  let rec of_ast ~classify (e : Ast.expr) =
    match e.desc with
    | Ast.Int n -> Some (of_int n)
    | Ast.Var v -> ( match classify v with `Var -> Some (var v) | `NonAffine -> None)
    | Ast.Neg a -> Option.map neg (of_ast ~classify a)
    | Ast.Aref _ -> None
    | Ast.Bin (op, a, b) -> (
        match (of_ast ~classify a, of_ast ~classify b) with
        | Some ea, Some eb -> (
            match op with
            | Ast.Add -> Some (add ea eb)
            | Ast.Sub -> Some (sub ea eb)
            | Ast.Mul -> mul ea eb
            | Ast.Div -> (
                match to_const eb with
                | Some k when not (Zint.is_zero k) -> div_exact ea k
                | _ -> None))
        | _ -> None)

  let rename f a =
    let out = ref (const (const_part a)) in
    iter
      (fun v c ->
         let v' = f v in
         if not (Zint.is_zero (coeff !out v')) then invalid_arg "rename: name collision";
         out := add !out (scale c (var v')))
      a;
    !out
end

(* Random expressions, [Gen_ast]'s syntactic ones and its mostly
   affine ones, under a random classification: the loop variables in
   scope keep their names; with [symbolic], the scalars taken as
   loop-invariant become versioned symbols; anything else poisons.
   Some expressions are scaled by a literal past the small [Zint]
   range. *)
let prop_of_ast_oracle =
  let names = [ "i"; "j"; "k"; "l"; "n"; "m"; "t"; "u"; "acc" ] in
  let gen =
    QCheck.Gen.(
      let subset = map (fun bits -> List.filteri (fun b _ -> bits land (1 lsl b) <> 0) names)
          (int_bound 511) in
      quad
        (frequency
           [ (2, Test_support.Gen_ast.gen_expr 3);
             (3, Test_support.Gen_ast.gen_linear_expr 4);
             ( 1,
               map
                 (fun e -> Ast.bin Ast.Mul e (Ast.int_ ((max_int / 3) + 1)))
                 (Test_support.Gen_ast.gen_linear_expr 3) ) ])
        bool subset (pair subset (int_bound 3)))
  in
  QCheck.Test.make ~name:"one-pass of_ast agrees with the per-node oracle" ~count:2000
    (QCheck.make
       ~print:(fun (e, symbolic, loops, (invariant, version)) ->
           Printf.sprintf "%s; symbolic %b; loops [%s]; invariant [%s] at #%d"
             (Pretty.expr_to_string e) symbolic (String.concat " " loops)
             (String.concat " " invariant) version)
       gen)
    (fun (e, symbolic, loops, (invariant, version)) ->
       let sym v = v ^ "#" ^ string_of_int version in
       let classify v =
         if List.mem v loops then v
         else if symbolic && List.mem v invariant then sym v
         else ""
       in
       let oracle =
         Oracle_symexpr.of_ast
           ~classify:(fun v -> if classify v = "" then `NonAffine else `Var)
           e
         |> Option.map (Oracle_symexpr.rename (fun v -> if List.mem v loops then v else sym v))
       in
       match (Symexpr.of_ast ~classify e, oracle) with
       | None, None -> true
       | Some a, Some b when Symexpr.equal a b -> true
       | got, want ->
         let show = function
           | None -> "None"
           | Some x -> Format.asprintf "%a" Symexpr.pp x
         in
         QCheck.Test.fail_reportf "got %s, oracle %s" (show got) (show want))

(* ------------------------------------------------------------------ *)
(* Memo_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_memo_basic () =
  let t = Memo_table.create () in
  Alcotest.(check (option int)) "miss" None (Memo_table.find t [| 1; 2; 3 |]);
  Memo_table.add t [| 1; 2; 3 |] 42;
  Alcotest.(check (option int)) "hit" (Some 42) (Memo_table.find t [| 1; 2; 3 |]);
  Alcotest.(check (option int)) "other key" None (Memo_table.find t [| 3; 2; 1 |]);
  Memo_table.add t [| 1; 2; 3 |] 43;
  Alcotest.(check (option int)) "replaced" (Some 43) (Memo_table.find t [| 1; 2; 3 |]);
  Alcotest.(check int) "one key" 1 (Memo_table.length t)

let test_memo_find_or_add () =
  let t = Memo_table.create () in
  let calls = ref 0 in
  let compute () = incr calls; !calls * 10 in
  let v1, hit1 = Memo_table.find_or_add t [| 7 |] compute in
  let v2, hit2 = Memo_table.find_or_add t [| 7 |] compute in
  Alcotest.(check (pair int bool)) "first" (10, false) (v1, hit1);
  Alcotest.(check (pair int bool)) "second" (10, true) (v2, hit2);
  Alcotest.(check int) "computed once" 1 !calls

let test_memo_growth () =
  let t = Memo_table.create ~initial_buckets:2 () in
  for i = 1 to 500 do
    Memo_table.add t [| i; i * 3; -i |] i
  done;
  Alcotest.(check int) "all stored" 500 (Memo_table.length t);
  let ok = ref true in
  for i = 1 to 500 do
    if Memo_table.find t [| i; i * 3; -i |] <> Some i then ok := false
  done;
  Alcotest.(check bool) "all retrievable after rehash" true !ok

let test_memo_size_and_load_factor () =
  let t = Memo_table.create ~initial_buckets:4 () in
  Alcotest.(check int) "empty size" 0 (Memo_table.length t);
  Alcotest.(check int) "initial buckets" 4 (Memo_table.buckets t);
  let n = (Memo_table.load_factor * 4) + 1 in
  for i = 1 to n do
    Memo_table.add t [| i |] i
  done;
  Alcotest.(check int) "size" n (Memo_table.length t);
  (* One entry past load_factor * buckets must have doubled the
     bucket array exactly once. *)
  Alcotest.(check int) "doubled once at the load factor" 8 (Memo_table.buckets t);
  Alcotest.(check (option int)) "hit after the doubling" (Some 1)
    (Memo_table.find t [| 1 |]);
  Alcotest.(check (option int)) "miss after the doubling" None
    (Memo_table.find t [| -1 |])

let test_memo_hash_asymmetry () =
  (* The paper chose h(x) = size + sum 2^i x_i so that symmetric
     references do not collide. *)
  Alcotest.(check bool) "swap changes hash" true
    (Memo_table.hash_key [| 1; 2 |] <> Memo_table.hash_key [| 2; 1 |]);
  Alcotest.(check bool) "offset position matters" true
    (Memo_table.hash_key [| 0; 1; 0 |] <> Memo_table.hash_key [| 0; 0; 1 |]);
  Alcotest.(check bool) "size matters" true
    (Memo_table.hash_key [||] <> Memo_table.hash_key [| 0 |])

(* ------------------------------------------------------------------ *)
(* Gcd_test: the affine map x = x0 + C t                               *)
(* ------------------------------------------------------------------ *)

let mk_problem src =
  let prog =
    Parser.parse_program (Pretty.program_to_string (Parser.parse_program src))
  in
  let sites = Affine.extract prog in
  let w = List.find (fun (s : Affine.site) -> s.role = `Write) sites in
  let r = List.find (fun (s : Affine.site) -> s.role = `Read) sites in
  Option.get (Build_problem.build w r)

let test_gcd_map_solves_equalities () =
  let p = mk_problem "for i = 1 to 10 do a[i+1] = a[i] + 3 end" in
  match Gcd_test.run p with
  | Gcd_test.Independent _ -> Alcotest.fail "should reduce"
  | Gcd_test.Reduced red ->
    Alcotest.(check int) "one free parameter" 1 red.nfree;
    (* Every parameter assignment must satisfy the equalities. *)
    List.iter
      (fun tval ->
         let x = Gcd_test.x_of_t red [| z tval |] in
         Alcotest.(check bool)
           (Printf.sprintf "t=%d satisfies equalities" tval)
           true
           (List.for_all
              (fun (r : Consys.row) ->
                 let acc = ref Zint.zero in
                 Array.iteri
                   (fun i c -> acc := Zint.add !acc (Zint.mul c x.(i)))
                   r.coeffs;
                 Zint.equal !acc r.rhs)
              p.eqs))
      [ -5; 0; 1; 17 ];
    (* delta: i - i' = -1 constantly. *)
    (match Gcd_test.delta red (Problem.var1 p 0) (Problem.var2 p 0) with
     | Some d -> Alcotest.check zint "delta -1" (z (-1)) d
     | None -> Alcotest.fail "delta should be constant")

let test_gcd_transform_row_roundtrip () =
  let p = mk_problem "for i = 1 to 10 do a[2*i] = a[2*i+4] + 3 end" in
  match Gcd_test.run p with
  | Gcd_test.Independent _ -> Alcotest.fail "should reduce (offset divisible)"
  | Gcd_test.Reduced red ->
    (* A row over original variables evaluated at x(t) must agree with
       the transformed row evaluated at t (up to the exact integer
       tightening of normalize_row, which preserves satisfaction). *)
    let nv = Problem.nvars p in
    let row = { Consys.coeffs = Array.init nv (fun i -> z (i + 1)); rhs = z 3 } in
    let trow = Gcd_test.transform_row red row in
    List.iter
      (fun tval ->
         let t = [| z tval |] in
         let x = Gcd_test.x_of_t red t in
         let sat_orig = Consys.satisfies x row in
         let sat_t = Consys.satisfies t trow in
         Alcotest.(check bool) (Printf.sprintf "t=%d agree" tval) sat_orig sat_t)
      [ -10; -1; 0; 1; 2; 9 ]

(* ------------------------------------------------------------------ *)
(* Build_problem                                                       *)
(* ------------------------------------------------------------------ *)

let test_build_layout () =
  let p =
    mk_problem
      "read(n)\nfor i = 1 to n do for j = 1 to i do aa[i][j+n] = aa[i][j] + 1 end end"
  in
  Alcotest.(check int) "n1" 2 p.n1;
  Alcotest.(check int) "n2" 2 p.n2;
  Alcotest.(check int) "ncommon" 2 p.ncommon;
  Alcotest.(check int) "one symbol" 1 p.nsym;
  Alcotest.(check int) "two equalities" 2 (List.length p.eqs);
  (* Bounds: i >= 1, i <= n, j >= 1, j <= i for each side = 8 rows. *)
  Alcotest.(check int) "eight bounds" 8 (List.length p.ineqs);
  Alcotest.(check string) "primed name" "i'" p.names.(Problem.var2 p 0);
  (* The j <= i bound's subject is j and mentions i. *)
  let bj =
    List.find
      (fun (b : Problem.bound) ->
         b.subject = Problem.var1 p 1
         && not (Zint.is_zero b.row.Consys.coeffs.(Problem.var1 p 0)))
      p.ineqs
  in
  Alcotest.(check bool) "triangular row exists" true
    (Zint.is_positive bj.row.Consys.coeffs.(Problem.var1 p 1))

let test_build_rejects () =
  let prog = Parser.parse_program "read(q)\nfor i = 1 to 10 do a[i*i] = a[i] + 1 end" in
  let sites = Affine.extract prog in
  let w = List.find (fun (s : Affine.site) -> s.role = `Write) sites in
  let r = List.find (fun (s : Affine.site) -> s.role = `Read) sites in
  Alcotest.(check bool) "non-affine write rejected" true
    (Build_problem.build w r = None)

let test_problem_satisfies_and_keys () =
  let p = mk_problem "for i = 1 to 10 do a[i+1] = a[i] + 3 end" in
  (* i = 1, i' = 2 solves i + 1 = i' within bounds. *)
  Alcotest.(check bool) "solution accepted" true (Problem.satisfies [| z 1; z 2 |] p);
  Alcotest.(check bool) "non-solution rejected" false
    (Problem.satisfies [| z 1; z 3 |] p);
  Alcotest.(check bool) "out of bounds rejected" false
    (Problem.satisfies [| z 10; z 11 |] p);
  let p2 = mk_problem "for i = 1 to 10 do b[i+1] = b[i] + 3 end" in
  Alcotest.(check bool) "keys ignore names" true
    (Problem.to_key p = Problem.to_key p2);
  let p3 = mk_problem "for i = 1 to 10 do a[i+2] = a[i] + 3 end" in
  Alcotest.(check bool) "different offsets differ" true
    (Problem.to_key p <> Problem.to_key p3);
  Alcotest.(check bool) "bounds excluded from gcd key" true
    (Problem.key_without_bounds p
     = Problem.key_without_bounds
         (mk_problem "for i = 1 to 99 do a[i+1] = a[i] + 3 end"))

(* ------------------------------------------------------------------ *)
(* Canonical                                                           *)
(* ------------------------------------------------------------------ *)

let test_canonical_drops_unused () =
  (* The paper's own example: programs (a) and (b) collapse once the
     dead j loop is eliminated. *)
  let pa =
    mk_problem
      "for i = 1 to 10 do for j = 1 to 10 do a[i+10] = a[i] + 3 end end"
  in
  let pb =
    mk_problem
      "for i = 1 to 10 do for j = 1 to 10 do a[j+10] = a[j] + 3 end end"
  in
  let ia = Canonical.reduce pa and ib = Canonical.reduce pb in
  Alcotest.(check bool) "both dropped a level" true (ia.dropped_any && ib.dropped_any);
  Alcotest.(check bool) "same canonical key" true
    (Problem.to_key ia.problem = Problem.to_key ib.problem);
  (* (a) drops level j (index 1), (b) drops level i (index 0). *)
  Alcotest.(check bool) "(a) keeps i" true ia.kept_common.(0);
  Alcotest.(check bool) "(a) drops j" false ia.kept_common.(1);
  Alcotest.(check bool) "(b) drops i" false ib.kept_common.(0);
  Alcotest.(check bool) "(b) keeps j" true ib.kept_common.(1)

let test_canonical_keeps_used () =
  let p =
    mk_problem "for i = 1 to 10 do for j = 1 to i do a[j] = a[j+1] + 1 end end"
  in
  (* i appears in j's bound: not unused. *)
  let info = Canonical.reduce p in
  Alcotest.(check bool) "nothing dropped" false info.dropped_any

let test_canonical_keeps_empty_range () =
  (* A zero-trip unused loop decides the whole problem; it must not be
     dropped. *)
  let p =
    mk_problem "for i = 1 to 10 do for j = 10 to 1 do a[i+10] = a[i] + 3 end end"
  in
  let info = Canonical.reduce p in
  Alcotest.(check bool) "empty-range loop kept" true info.kept_common.(1)

let test_canonical_reinsert () =
  let pa =
    mk_problem
      "for i = 1 to 10 do for j = 1 to 10 do a[i+1] = a[i] + 3 end end"
  in
  let info = Canonical.reduce pa in
  Alcotest.(check bool) "dropped j" true info.dropped_any;
  let v = Canonical.reinsert_vector info [| Direction.Dlt |] in
  Alcotest.(check string) "reinserted" "(<,*)"
    (Format.asprintf "%a" Direction.pp_vector v)

(* ------------------------------------------------------------------ *)
(* Direction refinement: test counts of the hierarchy                  *)
(* ------------------------------------------------------------------ *)

let refine_with prune src =
  let p = mk_problem src in
  match Gcd_test.run p with
  | Gcd_test.Independent _ -> Alcotest.fail "expected a reducible problem"
  | Gcd_test.Reduced red ->
    let counts = Direction.fresh_counts () in
    let r = Direction.refine ~prune ~counts p red in
    let total = Array.fold_left ( + ) 0 counts.Direction.by_test in
    (r, total)

let test_refine_hierarchy_counts () =
  (* Constant-cell pair under two loops: every direction of both levels
     is feasible. Unpruned Burke-Cytron: 1 root + 3 + 3*3 = 13 tests and
     9 concrete vectors. *)
  let src =
    "for i = 1 to 10 do for j = 1 to 10 do a[5] = a[5] + 1 end end"
  in
  let r, total = refine_with Direction.no_pruning src in
  Alcotest.(check bool) "dependent" true r.dependent;
  Alcotest.(check int) "13 tests" 13 total;
  Alcotest.(check int) "9 vectors" 9 (List.length r.vectors);
  (* Unused-variable pruning collapses both levels: one root test, one
     all-star vector. *)
  let r2, total2 = refine_with Direction.full_pruning src in
  Alcotest.(check bool) "still dependent" true r2.dependent;
  Alcotest.(check int) "1 test" 1 total2;
  Alcotest.(check string) "(*,*)" "(*,*)"
    (Format.asprintf "%a" Direction.pp_vector (List.hd r2.vectors))

let test_refine_distance_pruning_counts () =
  (* Constant distances at both levels: the directions are known from
     the GCD map, one root test only. *)
  let src =
    "for i = 1 to 10 do for j = 1 to 9 do aa[i][j] = aa[i][j + 1] + 1 end end"
  in
  let r, total = refine_with Direction.full_pruning src in
  Alcotest.(check int) "1 test" 1 total;
  (* The write's cell (i, j) is read when j' + 1 = j, i.e. j > j'. *)
  Alcotest.(check string) "(=,>)" "(=,>)"
    (Format.asprintf "%a" Direction.pp_vector (List.hd r.vectors));
  (* Without pruning the same answer costs the full hierarchy walk. *)
  let r2, total2 = refine_with Direction.no_pruning src in
  Alcotest.(check string) "same vector" "(=,>)"
    (Format.asprintf "%a" Direction.pp_vector (List.hd r2.vectors));
  Alcotest.(check bool) "more tests" true (total2 > total)

(* ------------------------------------------------------------------ *)
(* Affine extraction details                                           *)
(* ------------------------------------------------------------------ *)

let test_affine_versioning_and_invariance () =
  let prog =
    Parser.parse_program
      "read(n)\nfor i = 1 to n do\n  t = i + 1\n  a[n] = a[t] + 1\nend"
  in
  let sites = Affine.extract prog in
  let w = List.find (fun (s : Affine.site) -> s.role = `Write) sites in
  let r = List.find (fun (s : Affine.site) -> s.role = `Read) sites in
  Alcotest.(check bool) "a[n] affine via symbol" true (Affine.analyzable w);
  (* t is assigned inside the loop: not a valid symbol. *)
  Alcotest.(check bool) "a[t] not affine" false (Affine.analyzable r)

let test_affine_nonunit_step_bounds_unknown () =
  let prog = Parser.parse_program "for i = 1 to 10 step 3 do a[i] = a[i+1] + 1 end" in
  match Affine.extract prog with
  | { Affine.loops = [ ctx ]; _ } :: _ ->
    Alcotest.(check bool) "bounds unknown under non-unit step" true
      (ctx.Affine.lb = None && ctx.Affine.ub = None)
  | _ -> Alcotest.fail "expected one loop"

let test_affine_constant_subscripts () =
  let prog = Parser.parse_program "for i = 1 to 3 do a[5] = a[2+3] + 1 end" in
  let sites = Affine.extract prog in
  List.iter
    (fun (s : Affine.site) ->
       match Affine.constant_subscripts s with
       | Some [ c ] -> Alcotest.check zint "five" (z 5) c
       | _ -> Alcotest.fail "expected constant subscript")
    sites

let () =
  Alcotest.run "core-units"
    [
      ( "symexpr",
        [
          Alcotest.test_case "algebra" `Quick test_symexpr_algebra;
          Alcotest.test_case "mul/div" `Quick test_symexpr_mul_div;
          Alcotest.test_case "eval/subst" `Quick test_symexpr_eval_subst;
          Alcotest.test_case "of_ast" `Quick test_symexpr_of_ast;
          QCheck_alcotest.to_alcotest prop_of_ast_oracle;
        ] );
      ( "memo-table",
        [
          Alcotest.test_case "basic" `Quick test_memo_basic;
          Alcotest.test_case "find_or_add" `Quick test_memo_find_or_add;
          Alcotest.test_case "growth" `Quick test_memo_growth;
          Alcotest.test_case "size and load factor" `Quick test_memo_size_and_load_factor;
          Alcotest.test_case "hash asymmetry" `Quick test_memo_hash_asymmetry;
        ] );
      ( "gcd-reduction",
        [
          Alcotest.test_case "map solves equalities" `Quick test_gcd_map_solves_equalities;
          Alcotest.test_case "transform row round trip" `Quick
            test_gcd_transform_row_roundtrip;
        ] );
      ( "build-problem",
        [
          Alcotest.test_case "layout" `Quick test_build_layout;
          Alcotest.test_case "rejects non-affine" `Quick test_build_rejects;
          Alcotest.test_case "satisfies and keys" `Quick test_problem_satisfies_and_keys;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "drops unused (paper example)" `Quick
            test_canonical_drops_unused;
          Alcotest.test_case "keeps used" `Quick test_canonical_keeps_used;
          Alcotest.test_case "keeps empty range" `Quick test_canonical_keeps_empty_range;
          Alcotest.test_case "reinsert vector" `Quick test_canonical_reinsert;
        ] );
      ( "direction-counts",
        [
          Alcotest.test_case "hierarchy counts" `Quick test_refine_hierarchy_counts;
          Alcotest.test_case "distance pruning counts" `Quick
            test_refine_distance_pruning_counts;
        ] );
      ( "affine",
        [
          Alcotest.test_case "versioning and invariance" `Quick
            test_affine_versioning_and_invariance;
          Alcotest.test_case "non-unit step" `Quick test_affine_nonunit_step_bounds_unknown;
          Alcotest.test_case "constant subscripts" `Quick test_affine_constant_subscripts;
        ] );
    ]
