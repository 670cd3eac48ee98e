open Dda_lang

let passes =
  [
    ("const-prop", Const_prop.run);
    ("forward-subst", Forward_subst.run);
    ("induction", Induction.run);
    ("normalize", Normalize.run);
  ]

(* The passes in order. Forward substitution is skipped on a program
   that assigns no scalar: all it would do is canonicalize every
   expression, which constant propagation has just done
   ([Expr_util.canonicalize] is idempotent). *)
let one_round prog =
  let prog = Const_prop.run prog in
  let prog = if Forward_subst.substitutes prog then Forward_subst.run prog else prog in
  Normalize.run (Induction.run prog)

let run ?(max_rounds = 8) prog =
  let rec go round prog =
    if round >= max_rounds then prog
    else begin
      let prog' = one_round prog in
      if prog' == prog || Ast.equal_program prog prog' then prog else go (round + 1) prog'
    end
  in
  go 0 prog
