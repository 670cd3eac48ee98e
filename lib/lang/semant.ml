type error = {
  msg : string;
  loc : Loc.t;
}

let pp_error fmt { msg; loc } = Format.fprintf fmt "%a: %s" Loc.pp loc msg

(* Constant-fold an expression with no free variables; [None] when it
   contains a variable or divides by zero. *)
let rec const_value (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> Some n
  | Ast.Var _ | Ast.Aref _ -> None
  | Ast.Neg a -> Option.map (fun v -> -v) (const_value a)
  | Ast.Bin (op, a, b) -> (
      match (const_value a, const_value b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x + y)
          | Ast.Sub -> Some (x - y)
          | Ast.Mul -> Some (x * y)
          | Ast.Div -> if y = 0 then None else Some (x / y))
      | _ -> None)

let check prog =
  let errors = ref [] in
  let err loc fmt = Format.kasprintf (fun msg -> errors := { msg; loc } :: !errors) fmt in
  (* Array name -> (rank, first-seen loc). *)
  let ranks : (string, int * Loc.t) Hashtbl.t = Hashtbl.create 16 in
  let note_array name rank loc =
    match Hashtbl.find_opt ranks name with
    | None -> Hashtbl.add ranks name (rank, loc)
    | Some (r, first) ->
      if r <> rank then
        err loc "array '%s' used with rank %d but had rank %d at %a" name rank r
          Loc.pp first
  in
  (* Scalars known to have a value: assigned, read, or loop variables. *)
  let defined : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec check_expr loops (e : Ast.expr) =
    match e.desc with
    | Ast.Int _ -> ()
    | Ast.Var v ->
      if not (List.mem v loops || Hashtbl.mem defined v) then
        err e.eloc "scalar '%s' used before being defined" v
    | Ast.Neg a -> check_expr loops a
    | Ast.Bin (_, a, b) ->
      check_expr loops a;
      check_expr loops b
    | Ast.Aref (name, subs) ->
      if subs = [] then err e.eloc "array '%s' referenced with no subscripts" name;
      note_array name (List.length subs) e.eloc;
      List.iter (check_expr loops) subs
  in
  let rec check_stmt loops (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Assign (Ast.Lvar v, e) ->
      if List.mem v loops then
        err s.sloc "assignment to enclosing loop variable '%s'" v;
      check_expr loops e;
      Hashtbl.replace defined v ()
    | Ast.Assign (Ast.Larr (name, subs), e) ->
      if subs = [] then err s.sloc "array '%s' assigned with no subscripts" name;
      note_array name (List.length subs) s.sloc;
      List.iter (check_expr loops) subs;
      check_expr loops e
    | Ast.Read v ->
      if List.mem v loops then err s.sloc "read into enclosing loop variable '%s'" v;
      Hashtbl.replace defined v ()
    | Ast.If (cond, then_, else_) ->
      check_expr loops cond.lhs;
      check_expr loops cond.rhs;
      List.iter (check_stmt loops) then_;
      List.iter (check_stmt loops) else_
    | Ast.For { var; lo; hi; step; body; _ } ->
      if List.mem var loops then
        err s.sloc "loop variable '%s' shadows an enclosing loop variable" var;
      check_expr loops lo;
      check_expr loops hi;
      (match step with
       | None -> ()
       | Some st -> (
           check_expr loops st;
           match const_value st with
           | Some 0 -> err s.sloc "loop step is zero"
           | Some _ -> ()
           | None -> err s.sloc "loop step must be a non-zero constant"));
      List.iter (check_stmt (var :: loops)) body
  in
  List.iter (check_stmt []) prog;
  List.rev !errors
