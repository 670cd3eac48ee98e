exception Error of string * Loc.t

(* The parser reads the lexer's one current token: it matches on its
   kind, an immediate, and copies an identifier's text only for the
   AST node that holds it. *)

let peek = Lexer.kind
let loc = Lexer.loc
let advance = Lexer.advance

(* A lexical error anywhere after the syntax error wins, as though the
   whole input were tokenized first: the message and location are
   taken before the rest of the input is scanned. *)
let fail st msg =
  let msg = Printf.sprintf "%s (found '%s')" msg (Token.to_string (Lexer.token st))
  and loc = loc st in
  Lexer.scan_rest st;
  raise (Error (msg, loc))

let expect st (kind : Token.kind) what =
  if peek st = kind then advance st else fail st (Printf.sprintf "expected %s" what)

let expect_ident st what =
  match peek st with
  | Token.Ident ->
    let name = Lexer.text st in
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
  | Token.Plus ->
    let loc = loc st in
    advance st;
    expr_rest st (node (Ast.Bin (Ast.Add, acc, parse_term st)) loc)
  | Token.Minus ->
    let loc = loc st in
    advance st;
    expr_rest st (node (Ast.Bin (Ast.Sub, acc, parse_term st)) loc)
  | _ -> acc

and parse_term st = term_rest st (parse_factor st)

and term_rest st acc =
  match peek st with
  | Token.Star ->
    let loc = loc st in
    advance st;
    term_rest st (node (Ast.Bin (Ast.Mul, acc, parse_factor st)) loc)
  | Token.Slash ->
    let loc = loc st in
    advance st;
    term_rest st (node (Ast.Bin (Ast.Div, acc, parse_factor st)) loc)
  | _ -> acc

and parse_factor st =
  match peek st with
  | Token.Minus ->
    let loc = loc st in
    advance st;
    Ast.neg ~loc (parse_factor st)
  | Token.Int ->
    let n = Lexer.int_value st and loc = loc st in
    advance st;
    node (Ast.Int n) loc
  | Token.Lparen ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.Rparen "')'";
    e
  | Token.Ident ->
    let name = Lexer.text st and loc = loc st in
    advance st;
    (match parse_subscripts st with
     | [] -> node (Ast.Var name) loc
     | subs -> node (Ast.Aref (name, subs)) loc)
  | _ -> fail st "expected an expression"

and parse_subscripts st =
  match peek st with
  | Token.Lbracket ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.Rbracket "']'";
    e :: parse_subscripts st
  | _ -> []

let parse_relop st =
  let rel =
    match peek st with
    | Token.Eq -> Ast.Req
    | Token.Ne -> Ast.Rne
    | Token.Lt -> Ast.Rlt
    | Token.Le -> Ast.Rle
    | Token.Gt -> Ast.Rgt
    | Token.Ge -> Ast.Rge
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
  | Token.Parallel ->
    advance st;
    expect st Token.For "'for' after 'parallel'";
    parse_for st loc ~parallel:true
  | Token.For ->
    advance st;
    parse_for st loc ~parallel:false
  | Token.If ->
    advance st;
    let cond = parse_cond st in
    expect st Token.Then "'then'";
    let then_ = parse_stmts st in
    let else_ =
      match peek st with
      | Token.Else ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    expect st Token.End "'end'";
    snode (Ast.If (cond, then_, else_)) loc
  | Token.Read ->
    advance st;
    expect st Token.Lparen "'('";
    let name = expect_ident st "a variable name" in
    expect st Token.Rparen "')'";
    snode (Ast.Read name) loc
  | Token.Ident ->
    let name = Lexer.text st in
    advance st;
    let subs = parse_subscripts st in
    expect st Token.Assign "'='";
    let rhs = parse_expr_p st in
    let lv = if subs = [] then Ast.Lvar name else Ast.Larr (name, subs) in
    snode (Ast.Assign (lv, rhs)) loc
  | _ -> fail st "expected a statement"

and parse_for st loc ~parallel =
  let var = expect_ident st "a loop variable" in
  expect st Token.Assign "'='";
  let lo = parse_expr_p st in
  expect st Token.To "'to'";
  let hi = parse_expr_p st in
  let step =
    match peek st with
    | Token.Step ->
      advance st;
      Some (parse_expr_p st)
    | _ -> None
  in
  expect st Token.Do "'do'";
  let body = parse_stmts st in
  expect st Token.End "'end'";
  snode (Ast.For { var; lo; hi; step; parallel; body }) loc

and parse_stmts st =
  match peek st with
  | Token.End | Token.Else | Token.Eof -> []
  | _ ->
    let s = parse_stmt st in
    s :: parse_stmts st

let parse_all parse src =
  let st = Lexer.create src in
  let v = parse st in
  if peek st <> Token.Eof then fail st "expected end of input";
  v

let parse_program src = parse_all parse_stmts src
let parse_expr src = parse_all parse_expr_p src
