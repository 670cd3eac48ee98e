(** Hand-written lexer for the mini-Fortran loop language.

    Whitespace and newlines separate tokens; [#] starts a comment that
    runs to the end of the line.

    The lexer scans the source once, by index, and stores the tokens in
    two parallel arrays: the {!Token.t} and an int that packs the
    token's start line and column. The only per-token allocation is
    the payload of [INT] and [IDENT]; a {!Loc.t} is built only when
    asked for, by the parser for the AST nodes that carry one.

    The parser tokenizes the whole input before it parses anything, so
    a lexical error anywhere in the source wins over a syntax error
    that comes before it: {!Parser.parse_program} raises [Error], with
    the lexer's message and location, on any input that does not lex. *)

exception Error of string * Loc.t

type t
(** A token stream. Token [i] is at index [i], for [0 <= i < length];
    the last token is always [EOF], located just past the input. *)

val tokenize : string -> t
(** @raise Error on an unrecognized character ([unexpected character
    '$'], located at it), a [!] not followed by [=] ([expected '='
    after '!'], located at the [!]) or a decimal literal above
    [max_int] ([integer literal out of range: <digits>], located just
    past its last digit).
    @raise Invalid_argument on a source of [2^31 - 1] bytes or more. *)

val length : t -> int
val token : t -> int -> Token.t

val loc : t -> int -> Loc.t
(** Where token [i] starts; unpacked (and allocated) on each call. *)

val to_list : t -> (Token.t * Loc.t) list
(** Every token with its location, in order. *)
