exception Error of string * Loc.t

(* A cursor into the token arrays; [i] never passes the final [EOF]. *)
type state = {
  lx : Lexer.t;
  mutable i : int;
}

let peek st = Lexer.token st.lx st.i
let loc st = Lexer.loc st.lx st.i
let advance st = if st.i < Lexer.length st.lx - 1 then st.i <- st.i + 1

let fail st msg =
  raise (Error (Printf.sprintf "%s (found '%s')" msg (Token.to_string (peek st)), loc st))

let expect st tok what =
  if Token.equal (peek st) tok then advance st else fail st (Printf.sprintf "expected %s" what)

let expect_ident st what =
  match peek st with
  | Token.IDENT name ->
    advance st;
    name
  | _ -> fail st (Printf.sprintf "expected %s" what)

(* The AST nodes are built as records rather than through [Ast]'s
   smart constructors, whose optional [?loc] would box each location in
   an option. *)
let node desc eloc = { Ast.desc; eloc }
let snode sdesc sloc = { Ast.sdesc; sloc }

(* expr ::= term (("+" | "-") term)* *)
let rec parse_expr_p st = expr_rest st (parse_term st)

and expr_rest st acc =
  match peek st with
  | Token.PLUS ->
    let loc = loc st in
    advance st;
    expr_rest st (node (Ast.Bin (Ast.Add, acc, parse_term st)) loc)
  | Token.MINUS ->
    let loc = loc st in
    advance st;
    expr_rest st (node (Ast.Bin (Ast.Sub, acc, parse_term st)) loc)
  | _ -> acc

and parse_term st = term_rest st (parse_factor st)

and term_rest st acc =
  match peek st with
  | Token.STAR ->
    let loc = loc st in
    advance st;
    term_rest st (node (Ast.Bin (Ast.Mul, acc, parse_factor st)) loc)
  | Token.SLASH ->
    let loc = loc st in
    advance st;
    term_rest st (node (Ast.Bin (Ast.Div, acc, parse_factor st)) loc)
  | _ -> acc

and parse_factor st =
  match peek st with
  | Token.MINUS ->
    let loc = loc st in
    advance st;
    Ast.neg ~loc (parse_factor st)
  | Token.INT n ->
    let loc = loc st in
    advance st;
    node (Ast.Int n) loc
  | Token.LPAREN ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.RPAREN "')'";
    e
  | Token.IDENT name ->
    let loc = loc st in
    advance st;
    (match parse_subscripts st with
     | [] -> node (Ast.Var name) loc
     | subs -> node (Ast.Aref (name, subs)) loc)
  | _ -> fail st "expected an expression"

and parse_subscripts st =
  match peek st with
  | Token.LBRACKET ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.RBRACKET "']'";
    e :: parse_subscripts st
  | _ -> []

let parse_relop st =
  let rel =
    match peek st with
    | Token.EQ -> Ast.Req
    | Token.NE -> Ast.Rne
    | Token.LT -> Ast.Rlt
    | Token.LE -> Ast.Rle
    | Token.GT -> Ast.Rgt
    | Token.GE -> Ast.Rge
    | _ -> fail st "expected a relational operator"
  in
  advance st;
  rel

let parse_cond st =
  let lhs = parse_expr_p st in
  let rel = parse_relop st in
  let rhs = parse_expr_p st in
  { Ast.rel; lhs; rhs }

let rec parse_stmt st =
  let loc = loc st in
  match peek st with
  | Token.KW_PARALLEL ->
    advance st;
    expect st Token.KW_FOR "'for' after 'parallel'";
    parse_for st loc ~parallel:true
  | Token.KW_FOR ->
    advance st;
    parse_for st loc ~parallel:false
  | Token.KW_IF ->
    advance st;
    let cond = parse_cond st in
    expect st Token.KW_THEN "'then'";
    let then_ = parse_stmts st in
    let else_ =
      match peek st with
      | Token.KW_ELSE ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    expect st Token.KW_END "'end'";
    snode (Ast.If (cond, then_, else_)) loc
  | Token.KW_READ ->
    advance st;
    expect st Token.LPAREN "'('";
    let name = expect_ident st "a variable name" in
    expect st Token.RPAREN "')'";
    snode (Ast.Read name) loc
  | Token.IDENT name ->
    advance st;
    let subs = parse_subscripts st in
    expect st Token.ASSIGN "'='";
    let rhs = parse_expr_p st in
    let lv = if subs = [] then Ast.Lvar name else Ast.Larr (name, subs) in
    snode (Ast.Assign (lv, rhs)) loc
  | _ -> fail st "expected a statement"

and parse_for st loc ~parallel =
  let var = expect_ident st "a loop variable" in
  expect st Token.ASSIGN "'='";
  let lo = parse_expr_p st in
  expect st Token.KW_TO "'to'";
  let hi = parse_expr_p st in
  let step =
    match peek st with
    | Token.KW_STEP ->
      advance st;
      Some (parse_expr_p st)
    | _ -> None
  in
  expect st Token.KW_DO "'do'";
  let body = parse_stmts st in
  expect st Token.KW_END "'end'";
  snode (Ast.For { var; lo; hi; step; parallel; body }) loc

and parse_stmts st =
  match peek st with
  | Token.KW_END | Token.KW_ELSE | Token.EOF -> []
  | _ ->
    let s = parse_stmt st in
    s :: parse_stmts st

(* The whole input is tokenized first, so a lexical error anywhere wins
   over a syntax error before it. *)
let parse_all parse src =
  let st = { lx = Lexer.tokenize src; i = 0 } in
  let v = parse st in
  if peek st <> Token.EOF then fail st "expected end of input";
  v

let parse_program src = parse_all parse_stmts src
let parse_expr src = parse_all parse_expr_p src
