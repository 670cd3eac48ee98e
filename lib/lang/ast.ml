type binop =
  | Add
  | Sub
  | Mul
  | Div

type relop =
  | Req
  | Rne
  | Rlt
  | Rle
  | Rgt
  | Rge

type expr = {
  desc : expr_desc;
  eloc : Loc.t;
}

and expr_desc =
  | Int of int
  | Var of string
  | Bin of binop * expr * expr
  | Neg of expr
  | Aref of string * expr list

type cond = {
  rel : relop;
  lhs : expr;
  rhs : expr;
}

type lvalue =
  | Lvar of string
  | Larr of string * expr list

type stmt = {
  sdesc : stmt_desc;
  sloc : Loc.t;
}

and stmt_desc =
  | Assign of lvalue * expr
  | For of for_loop
  | If of cond * stmt list * stmt list
  | Read of string

and for_loop = {
  var : string;
  lo : expr;
  hi : expr;
  step : expr option;
  parallel : bool;
  body : stmt list;
}

type program = stmt list

let int_ ?(loc = Loc.dummy) n = { desc = Int n; eloc = loc }
let var ?(loc = Loc.dummy) s = { desc = Var s; eloc = loc }
let bin ?(loc = Loc.dummy) op a b = { desc = Bin (op, a, b); eloc = loc }
(* Fold negated literals so that "-11" has a single representation:
   the parser and printer would otherwise disagree on Neg (Int 11)
   versus Int (-11). *)
let neg ?(loc = Loc.dummy) e =
  match e.desc with
  | Int n -> { desc = Int (-n); eloc = loc }
  | Var _ | Bin _ | Neg _ | Aref _ -> { desc = Neg e; eloc = loc }
let aref ?(loc = Loc.dummy) name subs = { desc = Aref (name, subs); eloc = loc }
let assign ?(loc = Loc.dummy) lv e = { sdesc = Assign (lv, e); sloc = loc }

let for_ ?(loc = Loc.dummy) ?step ?(parallel = false) var lo hi body =
  { sdesc = For { var; lo; hi; step; parallel; body }; sloc = loc }

let if_ ?(loc = Loc.dummy) cond then_ else_ =
  { sdesc = If (cond, then_, else_); sloc = loc }

let read ?(loc = Loc.dummy) name = { sdesc = Read name; sloc = loc }

let rec iter_stmt f s =
  f s;
  match s.sdesc with
  | Assign _ | Read _ -> ()
  | For { body; _ } -> List.iter (iter_stmt f) body
  | If (_, t, e) ->
    List.iter (iter_stmt f) t;
    List.iter (iter_stmt f) e

let iter_stmts f prog = List.iter (iter_stmt f) prog

let rec iter_vars f e =
  match e.desc with
  | Int _ -> ()
  | Var v -> f v
  | Bin (_, a, b) ->
    iter_vars f a;
    iter_vars f b
  | Neg a -> iter_vars f a
  | Aref (_, subs) -> iter_vars_list f subs

and iter_vars_list f = function
  | [] -> ()
  | e :: es ->
    iter_vars f e;
    iter_vars_list f es

let rec mentions v e =
  match e.desc with
  | Int _ -> false
  | Var v' -> String.equal v v'
  | Bin (_, a, b) -> mentions v a || mentions v b
  | Neg a -> mentions v a
  | Aref (_, subs) -> mentions_list v subs

and mentions_list v = function
  | [] -> false
  | e :: es -> mentions v e || mentions_list v es

let array_refs prog =
  let out = ref [] in
  let rec expr_refs role e =
    match e.desc with
    | Int _ | Var _ -> ()
    | Bin (_, a, b) ->
      expr_refs role a;
      expr_refs role b
    | Neg a -> expr_refs role a
    | Aref (name, subs) ->
      out := (name, subs, role, e.eloc) :: !out;
      (* Subscripts of a reference are themselves reads. *)
      List.iter (expr_refs `Read) subs
  in
  iter_stmts
    (fun s ->
       match s.sdesc with
       | Assign (Lvar _, e) -> expr_refs `Read e
       | Assign (Larr (name, subs), e) ->
         out := (name, subs, `Write, s.sloc) :: !out;
         List.iter (expr_refs `Read) subs;
         expr_refs `Read e
       | For { lo; hi; step; _ } ->
         expr_refs `Read lo;
         expr_refs `Read hi;
         Option.iter (expr_refs `Read) step
       | If ({ lhs; rhs; _ }, _, _) ->
         expr_refs `Read lhs;
         expr_refs `Read rhs
       | Read _ -> ())
    prog;
  List.rev !out

let rec equal_expr a b =
  match (a.desc, b.desc) with
  | Int x, Int y -> x = y
  | Var x, Var y -> String.equal x y
  | Bin (op1, a1, b1), Bin (op2, a2, b2) ->
    op1 = op2 && equal_expr a1 a2 && equal_expr b1 b2
  | Neg x, Neg y -> equal_expr x y
  | Aref (n1, s1), Aref (n2, s2) ->
    String.equal n1 n2
    && List.length s1 = List.length s2
    && List.for_all2 equal_expr s1 s2
  | (Int _ | Var _ | Bin _ | Neg _ | Aref _), _ -> false

let equal_cond c1 c2 =
  c1.rel = c2.rel && equal_expr c1.lhs c2.lhs && equal_expr c1.rhs c2.rhs

let equal_lvalue l1 l2 =
  match (l1, l2) with
  | Lvar a, Lvar b -> String.equal a b
  | Larr (n1, s1), Larr (n2, s2) ->
    String.equal n1 n2
    && List.length s1 = List.length s2
    && List.for_all2 equal_expr s1 s2
  | (Lvar _ | Larr _), _ -> false

let rec equal_stmt s1 s2 =
  match (s1.sdesc, s2.sdesc) with
  | Assign (l1, e1), Assign (l2, e2) -> equal_lvalue l1 l2 && equal_expr e1 e2
  | For f1, For f2 ->
    String.equal f1.var f2.var && equal_expr f1.lo f2.lo
    && equal_expr f1.hi f2.hi
    && Option.equal equal_expr f1.step f2.step
    && Bool.equal f1.parallel f2.parallel
    && equal_program f1.body f2.body
  | If (c1, t1, e1), If (c2, t2, e2) ->
    equal_cond c1 c2 && equal_program t1 t2 && equal_program e1 e2
  | Read a, Read b -> String.equal a b
  | (Assign _ | For _ | If _ | Read _), _ -> false

and equal_program p1 p2 =
  List.length p1 = List.length p2 && List.for_all2 equal_stmt p1 p2
