open Dda_lang

module Env = Map.Make (String)

(* Bindings map a scalar to the pure scalar expression that defines it,
   already rewritten in terms of base variables. A binding dies when
   its variable or any variable it mentions is redefined. The
   environment is threaded through the walk in a ref, so a statement
   costs no [(stmt, env)] tuple. *)

let kill_var v env =
  if Env.is_empty env then env
  else Env.filter (fun key e -> (not (String.equal key v)) && not (Expr_util.uses_var v e)) env

(* With no binding, substitution is the identity and only the
   canonicalization remains; that case allocates no lookup closure. *)
let rewrite env e =
  if Env.is_empty env then Expr_util.canonicalize e
  else Expr_util.subst (fun v -> Env.find_opt v env) e

let rec fs_stmt env (s : Ast.stmt) : Ast.stmt =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e0) ->
    let e = rewrite !env e0 in
    env := kill_var v !env;
    if Expr_util.is_pure_scalar e && not (Expr_util.uses_var v e) then
      env := Env.add v e !env;
    if e == e0 then s else { s with sdesc = Ast.Assign (Ast.Lvar v, e) }
  | Ast.Assign (Ast.Larr (name, subs0), e0) ->
    let subs = Expr_util.map_sharing_with rewrite !env subs0 in
    let e = rewrite !env e0 in
    if subs == subs0 && e == e0 then s
    else { s with sdesc = Ast.Assign (Ast.Larr (name, subs), e) }
  | Ast.Read v ->
    env := kill_var v !env;
    s
  | Ast.If (cond0, then_0, else_0) ->
    let lhs = rewrite !env cond0.Ast.lhs and rhs = rewrite !env cond0.Ast.rhs in
    let cond = if lhs == cond0.Ast.lhs && rhs == cond0.Ast.rhs then cond0
      else { cond0 with Ast.lhs = lhs; rhs } in
    let env0 = !env in
    let then_ = fs_stmts env then_0 in
    let env_t = !env in
    env := env0;
    let else_ = fs_stmts env else_0 in
    if env_t != !env then
      env :=
        Env.merge
          (fun _ a b ->
             match (a, b) with
             | Some x, Some y when Ast.equal_expr x y -> Some x
             | _ -> None)
          env_t !env;
    if cond == cond0 && then_ == then_0 && else_ == else_0 then s
    else { s with sdesc = Ast.If (cond, then_, else_) }
  | Ast.For ({ var; lo = lo0; hi = hi0; step = step0; body = body0; _ } as l) ->
    let lo = rewrite !env lo0 and hi = rewrite !env hi0 in
    let step =
      match step0 with
      | None -> None
      | Some st -> let st' = rewrite !env st in if st' == st then step0 else Some st'
    in
    if not (Env.is_empty !env) then begin
      env := kill_var var !env;
      Expr_util.iter_assigned (fun v -> env := kill_var v !env) body0
    end;
    let env_in = !env in
    let body = fs_stmts env body0 in
    env := env_in;
    if lo == lo0 && hi == hi0 && step == step0 && body == body0 then s
    else { s with sdesc = Ast.For { l with lo; hi; step; body } }

and fs_stmts env stmts =
  match stmts with
  | [] -> stmts
  | s :: rest ->
    let s' = fs_stmt env s in
    let rest' = fs_stmts env rest in
    if s' == s && rest' == rest then stmts else s' :: rest'

let run prog = fs_stmts (ref Env.empty) prog

let rec substitutes stmts =
  List.exists
    (fun (s : Ast.stmt) ->
       match s.sdesc with
       | Ast.Assign (Ast.Lvar _, _) -> true
       | Ast.Assign (Ast.Larr _, _) | Ast.Read _ -> false
       | Ast.If (_, t, e) -> substitutes t || substitutes e
       | Ast.For f -> substitutes f.body)
    stmts
