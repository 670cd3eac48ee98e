type t =
  | INT of int
  | IDENT of string
  | KW_FOR
  | KW_PARALLEL
  | KW_TO
  | KW_STEP
  | KW_DO
  | KW_END
  | KW_IF
  | KW_THEN
  | KW_ELSE
  | KW_READ
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | ASSIGN
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | EOF

type kind =
  | Int
  | Ident
  | For
  | Parallel
  | To
  | Step
  | Do
  | End
  | If
  | Then
  | Else
  | Read
  | Plus
  | Minus
  | Star
  | Slash
  | Assign
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Eof

let equal (a : t) (b : t) = a = b

let to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW_FOR -> "for"
  | KW_PARALLEL -> "parallel"
  | KW_TO -> "to"
  | KW_STEP -> "step"
  | KW_DO -> "do"
  | KW_END -> "end"
  | KW_IF -> "if"
  | KW_THEN -> "then"
  | KW_ELSE -> "else"
  | KW_READ -> "read"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | EOF -> "<eof>"
