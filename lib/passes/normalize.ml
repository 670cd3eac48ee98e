open Dda_lang

(* Every identifier occurring anywhere in the program, for fresh-name
   generation. *)
let all_names prog =
  let names = Hashtbl.create 32 in
  let note n = Hashtbl.replace names n () in
  let rec expr (e : Ast.expr) =
    match e.desc with
    | Ast.Int _ -> ()
    | Ast.Var v -> note v
    | Ast.Neg a -> expr a
    | Ast.Bin (_, a, b) ->
      expr a;
      expr b
    | Ast.Aref (name, subs) ->
      note name;
      List.iter expr subs
  in
  Ast.iter_stmts
    (fun s ->
       match s.Ast.sdesc with
       | Ast.Assign (Ast.Lvar v, e) ->
         note v;
         expr e
       | Ast.Assign (Ast.Larr (name, subs), e) ->
         note name;
         List.iter expr subs;
         expr e
       | Ast.Read v -> note v
       | Ast.If (c, _, _) ->
         expr c.Ast.lhs;
         expr c.Ast.rhs
       | Ast.For { var; lo; hi; step; _ } ->
         note var;
         expr lo;
         expr hi;
         Option.iter expr step)
    prog;
  names

let is_temp_name name =
  (* Matches <base>__n with an optional numeric suffix. *)
  match String.index_opt name '_' with
  | None -> false
  | Some _ ->
    let rec find_marker i =
      if i + 2 >= String.length name then None
      else if name.[i] = '_' && name.[i + 1] = '_' && name.[i + 2] = 'n' then Some (i + 3)
      else find_marker (i + 1)
    in
    (match find_marker 0 with
     | None -> false
     | Some rest_start ->
       let rec all_digits i =
         i >= String.length name
         || (name.[i] >= '0' && name.[i] <= '9' && all_digits (i + 1))
       in
       all_digits rest_start)

let fresh names base =
  let rec try_ i =
    let candidate = if i = 0 then base ^ "__n" else Printf.sprintf "%s__n%d" base i in
    if Hashtbl.mem names candidate then try_ (i + 1)
    else begin
      Hashtbl.replace names candidate ();
      candidate
    end
  in
  try_ 0

let cf = Expr_util.canonicalize

let subst_in_stmt v formula s =
  Expr_util.map_program_exprs
    (Expr_util.subst (fun x -> if String.equal x v then Some formula else None))
    [ s ]
  |> List.hd

(* Rewrite [for var = lo to hi step stepc] (constant [stepc], not 0 or
   1, already-normalized [body]) to a unit-step loop from 0, or return
   [kept] when the rewrite would not be sound. *)
let normalize_loop names (s : Ast.stmt) ({ var; lo; hi; _ } as l : Ast.for_loop) ~stepc
    ~body ~kept =
  let assigned = Expr_util.assigned_vars body in
  let invariant e =
    Expr_util.is_pure_scalar e
    && (not (Expr_util.uses_var var e))
    && not (List.exists (fun w -> Expr_util.uses_var w e) assigned)
  in
  (* A body that reassigns (shadows) the loop variable makes the
     substituted occurrences read the clobbered value; leave such
     (ill-formed) loops alone. *)
  if List.mem var assigned || not (invariant lo && invariant hi) then kept
  else begin
    let nvar = fresh (Lazy.force names) var in
    (* i = lo + stepc * nvar *)
    let formula =
      cf (Ast.bin Ast.Add lo (Ast.bin Ast.Mul (Ast.int_ stepc) (Ast.var nvar)))
    in
    let body = List.map (subst_in_stmt var formula) body in
    (* Trip count - 1 = (hi - lo) / stepc. The language only has
       truncating division, which matches floor division exactly when
       (hi - lo) and stepc have the same sign — i.e. when the loop runs
       at all. Guard the whole rewrite with the loop-runs condition so
       the truncation never lies. *)
    let last_trip = cf (Ast.bin Ast.Div (Ast.bin Ast.Sub hi lo) (Ast.int_ stepc)) in
    let new_loop =
      { s with
        sdesc =
          Ast.For
            { var = nvar;
              lo = Ast.int_ 0;
              hi = last_trip;
              step = None;
              parallel = l.parallel;
              body;
            };
      }
    in
    (* The original variable keeps Fortran semantics: it holds the last
       executed iteration's value (loops that never run leave it
       untouched). *)
    let runs_guard =
      if stepc > 0 then { Ast.rel = Ast.Rle; lhs = lo; rhs = hi }
      else { Ast.rel = Ast.Rge; lhs = lo; rhs = hi }
    in
    let final_value = cf (Ast.bin Ast.Add lo (Ast.bin Ast.Mul (Ast.int_ stepc) last_trip)) in
    Ast.if_ runs_guard [ new_loop; Ast.assign (Ast.Lvar var) final_value ] []
  end

(* Every statement maps to one statement. [names] is forced on the
   first non-unit-step loop: most programs have none, and then the
   pass is one walk that allocates nothing. *)
let rec norm_stmt names (s : Ast.stmt) : Ast.stmt =
  match s.sdesc with
  | Ast.Assign _ | Ast.Read _ -> s
  | Ast.If (cond, then_, else_) ->
    let then_' = norm_stmts names then_ and else_' = norm_stmts names else_ in
    if then_' == then_ && else_' == else_ then s
    else { s with sdesc = Ast.If (cond, then_', else_') }
  | Ast.For ({ step; body = body0; _ } as l) -> (
      let body = norm_stmts names body0 in
      let kept = if body == body0 then s else { s with sdesc = Ast.For { l with body } } in
      match step with
      | None -> kept
      | Some st -> (
          match (Expr_util.const_fold st).desc with
          | Ast.Int 1 ->
            (* Unit step already; drop the redundant step annotation. *)
            { s with sdesc = Ast.For { l with step = None; body } }
          | Ast.Int 0 -> kept (* zero: leave alone *)
          | Ast.Int stepc -> normalize_loop names s l ~stepc ~body ~kept
          | _ -> kept (* non-constant: leave alone *)))

and norm_stmts names stmts =
  match stmts with
  | [] -> stmts
  | s :: rest ->
    let s' = norm_stmt names s in
    let rest' = norm_stmts names rest in
    if s' == s && rest' == rest then stmts else s' :: rest'

let run prog = norm_stmts (lazy (all_names prog)) prog
