(** Tokens of the mini-Fortran loop language. *)

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
  | ASSIGN  (** [=] *)
  | EQ      (** [==] *)
  | NE      (** [!=] *)
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
(** What the lexer reports for its current token: the token without its
    payload. Every constructor is constant, so a kind is an immediate
    int: {!Lexer} stores it without a write barrier and the parser
    matches on it without touching the heap. *)

val equal : t -> t -> bool
val to_string : t -> string
