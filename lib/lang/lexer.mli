(** Hand-written pull lexer for the mini-Fortran loop language.

    Whitespace and newlines separate tokens; [#] starts a comment that
    runs to the end of the line.

    A lexer holds one current token, its kind, its [Int] value and its
    position all kept in int fields, and {!advance} scans the next one
    by index. Moving from token to token allocates nothing: no token
    is boxed or stored, the text of an identifier is made only when
    asked for ({!text}, which the parser calls for the names it puts
    in the AST; a one-letter name is a shared string), and a {!Loc.t}
    is built only when asked for ({!loc}).

    Lexical errors are raised when the scan reaches them. The parser
    keeps the rule that a lexical error anywhere in the source wins
    over a syntax error that comes before it: on a syntax error it
    runs {!scan_rest} first, so {!Parser.parse_program} raises
    [Error], with the lexer's message and location, on any input that
    does not lex. *)

exception Error of string * Loc.t

type t

val create : string -> t
(** A lexer on the source's first token.
    @raise Error as {!advance} does. *)

val advance : t -> unit
(** Move to the next token; at [Eof], which is located just past the
    input, stay there.
    @raise Error on an unrecognized character ([unexpected character
    '$'], located at it), a [!] not followed by [=] ([expected '='
    after '!'], located at the [!]) or a decimal literal above
    [max_int] ([integer literal out of range: <digits>], located just
    past its last digit). *)

val kind : t -> Token.kind
(** The current token's kind. *)

val int_value : t -> int
(** The current token's value, when it is an [Int]. *)

val text : t -> string
(** The current token's source text: an [Ident]'s name. A one-letter
    text is a string shared by every call; a longer one is a fresh
    copy. *)

val loc : t -> Loc.t
(** Where the current token starts; allocated on each call. *)

val token : t -> Token.t
(** The current token with its payload. *)

val scan_rest : t -> unit
(** Advance to [Eof].
    @raise Error at the first lexical error past the current token. *)

val tokenize : string -> (Token.t * Loc.t) list
(** Every token with its location, in order, the last one [EOF]: a
    driver over {!create} and {!advance}, for tests.
    @raise Error as {!advance} does. *)
