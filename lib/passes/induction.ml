open Dda_lang

module Env = Map.Make (String)

(* [v = v + c] / [v = c + v] / [v = v - c] at the top level of a loop
   body; returns the increment constant. *)
let increment_of v (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v', e) when String.equal v v' -> (
      match (Expr_util.const_fold e).desc with
      | Ast.Bin (Ast.Add, { desc = Ast.Var x; _ }, { desc = Ast.Int c; _ })
        when String.equal x v -> Some c
      | Ast.Bin (Ast.Add, { desc = Ast.Int c; _ }, { desc = Ast.Var x; _ })
        when String.equal x v -> Some c
      | Ast.Bin (Ast.Sub, { desc = Ast.Var x; _ }, { desc = Ast.Int c; _ })
        when String.equal x v -> Some (-c)
      | _ -> None)
  | _ -> None

(* Count assignments/reads targeting [v] in a statement tree. *)
let rec writes_to v (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v', _) -> if String.equal v v' then 1 else 0
  | Ast.Read v' -> if String.equal v v' then 1 else 0
  | Ast.Assign (Ast.Larr _, _) -> 0
  | Ast.If (_, t, e) -> writes_in v t + writes_in v e
  | Ast.For { var; body; _ } ->
    (if String.equal var v then 1 else 0) + writes_in v body

and writes_in v stmts = List.fold_left (fun n s -> n + writes_to v s) 0 stmts

type candidate = {
  pos : int;  (* index of the increment statement in the body *)
  ivar : string;
  inc : int;
  base : Ast.expr;  (* entry value of [ivar] *)
}

(* The increment statements of [body] (from position [pos] of [stmts]
   on) whose variable it writes nowhere else. A loop with none costs
   this one scan and no allocation. *)
let rec find_candidates env ~loop_var ~body pos (stmts : Ast.stmt list) =
  match stmts with
  | [] -> []
  | s :: rest -> (
      match s.sdesc with
      | Ast.Assign (Ast.Lvar v, _) -> (
          match increment_of v s with
          | Some inc when inc <> 0 && writes_in v body = 1 ->
            (* Entry value: a known pure definition that stays valid
               through the loop, else the (now invariant) variable
               itself. *)
            let base =
              match Env.find_opt v env with
              | Some e
                when Expr_util.is_pure_scalar e
                     && (not (Expr_util.uses_var loop_var e))
                     && not
                          (List.exists
                             (fun w -> Expr_util.uses_var w e)
                             (Expr_util.assigned_vars body)) -> e
              | Some _ | None -> Ast.var v
            in
            { pos; ivar = v; inc; base } :: find_candidates env ~loop_var ~body (pos + 1) rest
          | Some _ | None -> find_candidates env ~loop_var ~body (pos + 1) rest)
      | _ -> find_candidates env ~loop_var ~body (pos + 1) rest)

let simplify = Expr_util.canonicalize

let mul_const c e = if c = 1 then e else simplify (Ast.bin Ast.Mul (Ast.int_ c) e)
let add_ a b = simplify (Ast.bin Ast.Add a b)
let sub_ a b = simplify (Ast.bin Ast.Sub a b)

(* Value of the induction variable in the iteration where the loop
   variable equals [i], after [k_extra] executions of the increment in
   the current iteration. *)
let value_at cand ~loop_var ~lo ~k_extra =
  let trips = add_ (sub_ (Ast.var loop_var) lo) (Ast.int_ k_extra) in
  add_ cand.base (mul_const cand.inc trips)

let subst_var v formula stmt =
  Expr_util.map_program_exprs
    (Expr_util.subst (fun x -> if String.equal x v then Some formula else None))
    [ stmt ]
  |> List.hd

let apply_candidate ~loop_var ~lo cand body =
  (* Only two distinct formulas exist — before the increment statement
     (k_extra = 0) and after it (k_extra = 1) — so build each once
     instead of re-simplifying per statement. *)
  let before = value_at cand ~loop_var ~lo ~k_extra:0 in
  let after = value_at cand ~loop_var ~lo ~k_extra:1 in
  List.mapi
    (fun pos s ->
       if pos = cand.pos then None
       else Some (subst_var cand.ivar (if pos < cand.pos then before else after) s))
    body
  |> List.filter_map Fun.id

(* Guarded final assignment preserving the post-loop value (zero-trip
   loops leave the variable at its entry value). *)
let final_assign cand ~lo ~hi =
  let trips = add_ (sub_ hi lo) (Ast.int_ 1) in
  let final = add_ cand.base (mul_const cand.inc trips) in
  Ast.if_
    { Ast.rel = Ast.Rge; lhs = hi; rhs = lo }
    [ Ast.assign (Ast.Lvar cand.ivar) final ]
    []

(* The walk's state: the entry-value environment, threaded through in
   place of an [(stmts, env)] pair per statement, and the guarded final
   assignments the last loop transformed leaves to follow it. *)
type state = {
  mutable env : Ast.expr Env.t;
  mutable finals : Ast.stmt list;
}

(* Forget [v] and every fact that mentions it. *)
let kill v env =
  if Env.is_empty env then env
  else Env.filter (fun _ d -> not (Expr_util.uses_var v d)) (Env.remove v env)

let kill_assigned st stmts =
  if not (Env.is_empty st.env) then
    Expr_util.iter_assigned (fun v -> st.env <- kill v st.env) stmts

let rec ind_stmt st (s : Ast.stmt) : Ast.stmt =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e) ->
    st.env <- kill v st.env;
    if Expr_util.is_pure_scalar e && not (Expr_util.uses_var v e) then
      st.env <- Env.add v (Expr_util.const_fold e) st.env;
    s
  | Ast.Assign (Ast.Larr _, _) -> s
  | Ast.Read v ->
    st.env <- kill v st.env;
    s
  | Ast.If (cond, then_0, else_0) ->
    let env = st.env in
    let then_ = ind_stmts st then_0 in
    st.env <- env;
    let else_ = ind_stmts st else_0 in
    st.env <- env;
    (* Conservatively drop facts invalidated by either branch. *)
    kill_assigned st then_;
    kill_assigned st else_;
    if then_ == then_0 && else_ == else_0 then s
    else { s with sdesc = Ast.If (cond, then_, else_) }
  | Ast.For ({ var; lo; hi; step; body = body0; _ } as l) ->
    (* [env] (pre-kill) holds entry values. *)
    let env = st.env in
    st.env <- kill var st.env;
    kill_assigned st body0;
    let env_in = st.env in
    (* Transform nested loops first. *)
    let body = ind_stmts st body0 in
    st.env <- env_in;
    let kept = if body == body0 then s else { s with sdesc = Ast.For { l with body } } in
    if find_candidates env ~loop_var:var ~body 0 body = [] then kept
    else begin
      let unit_step =
        match step with
        | None -> true
        | Some e -> (
            match (Expr_util.const_fold e).desc with Ast.Int 1 -> true | _ -> false)
      in
      (* The guarded final assignment re-evaluates the bounds after the
         loop, so they must be pure and loop-invariant. One scan of the
         transformed body serves every check below. *)
      let assigned = Expr_util.assigned_vars body in
      let invariant e =
        Expr_util.is_pure_scalar e
        && (not (Expr_util.uses_var var e))
        && not (List.exists (fun w -> Expr_util.uses_var w e) assigned)
      in
      let bounds_pure = invariant lo && invariant hi in
      (* A body that reassigns (shadows) the loop variable would make the
         substitution formulas read the clobbered value. *)
      let var_stable = not (List.mem var assigned) in
      if not (unit_step && bounds_pure && var_stable) then kept
      else begin
        (* Candidates whose variable has a stable definition in [env]
           fold it in. Apply one candidate at a time and re-detect, so
           statement positions stay honest after the increment
           statement is removed. *)
        let rec apply_all body =
          match find_candidates env ~loop_var:var ~body 0 body with
          | [] -> (body, [])
          | cand :: _ ->
            let body' = apply_candidate ~loop_var:var ~lo cand body in
            let body'', finals = apply_all body' in
            (body'', final_assign cand ~lo ~hi :: finals)
        in
        let body, finals = apply_all body in
        if body == body0 && finals = [] then s
        else begin
          (* The finals assign induction variables; drop them from env. *)
          st.finals <- finals;
          kill_assigned st finals;
          { s with sdesc = Ast.For { l with body } }
        end
      end
    end

and ind_stmts st stmts =
  match stmts with
  | [] -> stmts
  | s :: rest ->
    let s' = ind_stmt st s in
    let finals = st.finals in
    st.finals <- [];
    let rest' = ind_stmts st rest in
    if s' == s && finals == [] && rest' == rest then stmts else s' :: (finals @ rest')

let run prog = ind_stmts { env = Env.empty; finals = [] } prog
