open Dda_lang

module Env = Map.Make (String)

(* The environment maps scalars to known constant values. It is
   threaded through the walk in a ref, so a statement costs no
   [(stmt, env)] tuple. *)

let lookup env v =
  match Env.find_opt v env with Some n -> Some (Ast.int_ n) | None -> None

(* With nothing known, substitution is the identity and only the
   canonicalization remains; that case allocates no lookup closure. *)
let rewrite env e =
  if Env.is_empty env then Expr_util.canonicalize e else Expr_util.subst (lookup env) e

let rec prop_stmt env (s : Ast.stmt) : Ast.stmt =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e0) ->
    let e = rewrite !env e0 in
    (match e.desc with
     | Ast.Int n when Expr_util.is_pure_scalar e -> env := Env.add v n !env
     | _ -> env := Env.remove v !env);
    if e == e0 then s else { s with sdesc = Ast.Assign (Ast.Lvar v, e) }
  | Ast.Assign (Ast.Larr (name, subs0), e0) ->
    let subs = Expr_util.map_sharing_with rewrite !env subs0 in
    let e = rewrite !env e0 in
    if subs == subs0 && e == e0 then s
    else { s with sdesc = Ast.Assign (Ast.Larr (name, subs), e) }
  | Ast.Read v ->
    env := Env.remove v !env;
    s
  | Ast.If (cond0, then_0, else_0) ->
    let lhs = rewrite !env cond0.Ast.lhs and rhs = rewrite !env cond0.Ast.rhs in
    let cond = if lhs == cond0.Ast.lhs && rhs == cond0.Ast.rhs then cond0
      else { cond0 with Ast.lhs = lhs; rhs } in
    let env0 = !env in
    let then_ = prop_stmts env then_0 in
    let env_t = !env in
    env := env0;
    let else_ = prop_stmts env else_0 in
    (* Keep facts that hold on both paths. *)
    if env_t != !env then
      env :=
        Env.merge
          (fun _ a b ->
             match (a, b) with Some x, Some y when x = y -> Some x | _ -> None)
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
    (* Anything the body assigns (and the loop variable) is unknown both
       inside the body and after the loop. *)
    if not (Env.is_empty !env) then begin
      env := Env.remove var !env;
      Expr_util.iter_assigned (fun v -> env := Env.remove v !env) body0
    end;
    let env_in = !env in
    let body = prop_stmts env body0 in
    env := env_in;
    if lo == lo0 && hi == hi0 && step == step0 && body == body0 then s
    else { s with sdesc = Ast.For { l with lo; hi; step; body } }

and prop_stmts env stmts =
  match stmts with
  | [] -> stmts
  | s :: rest ->
    let s' = prop_stmt env s in
    let rest' = prop_stmts env rest in
    if s' == s && rest' == rest then stmts else s' :: rest'

let run prog = prop_stmts (ref Env.empty) prog
