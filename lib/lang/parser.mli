(** Recursive-descent parser for the mini-Fortran loop language, with
    one token of lookahead: it pulls tokens from a {!Lexer.t} as it
    goes, matching on their kind, and copies an identifier's text only
    for the AST node that holds it.

    Grammar (EBNF; [{stmt}] means zero or more):
    {v
    program  ::= {stmt}
    stmt     ::= ident [subs] "=" expr
               | "for" ident "=" expr "to" expr ["step" expr] "do"
                   {stmt} end
               | "if" cond "then" {stmt} ["else" {stmt}] end
               | "read" "(" ident ")"
    end      ::= "end" | "endfor" | "endif"    (all interchangeable)
    cond     ::= expr relop expr
    subs     ::= "[" expr "]" {"[" expr "]"}
    expr     ::= term {("+" | "-") term}
    term     ::= factor {("*" | "/") factor}
    factor   ::= "-" factor | int | ident [subs] | "(" expr ")"
    v} *)

exception Error of string * Loc.t

val parse_program : string -> Ast.program
(** @raise Error on a syntax error; @raise Lexer.Error on a lexical
    error, which wins over a syntax error before it: the rest of the
    input is scanned before a syntax error is raised. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression (used by tests and the REPL-style
    tooling). @raise Error if trailing input remains. *)
