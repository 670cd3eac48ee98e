open Dda_lang

let passes =
  [
    ("const-prop", Const_prop.run);
    ("forward-subst", Forward_subst.run);
    ("induction", Induction.run);
    ("normalize", Normalize.run);
  ]

let one_round prog = List.fold_left (fun p (_, pass) -> pass p) prog passes

let run ?(max_rounds = 8) prog =
  let rec go round prog =
    if round >= max_rounds then prog
    else begin
      let prog' = one_round prog in
      if prog' == prog || Ast.equal_program prog prog' then prog else go (round + 1) prog'
    end
  in
  go 0 prog
