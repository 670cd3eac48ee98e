exception Error of string * Loc.t

(* Token stream: parallel growable arrays, the token and its start
   position packed as [line lsl pos_bits lor col]. The parser indexes
   them directly, so the only per-token allocation is the boxed
   payload of [INT] and [IDENT]. *)
type t = {
  mutable toks : Token.t array;
  mutable pos : int array;
  mutable len : int;
}

let pos_bits = 31
let col_mask = (1 lsl pos_bits) - 1

(* Both line and column are at most the source length plus one. *)
let max_source = col_mask - 1

let length t = t.len
let token t i = t.toks.(i)
let loc t i = Loc.make ~line:(t.pos.(i) lsr pos_bits) ~col:(t.pos.(i) land col_mask)
let to_list t = List.init t.len (fun i -> (token t i, loc t i))

let push t tok packed =
  if t.len = Array.length t.toks then begin
    let n = 2 * t.len in
    let toks = Array.make n Token.EOF and pos = Array.make n 0 in
    Array.blit t.toks 0 toks 0 t.len;
    Array.blit t.pos 0 pos 0 t.len;
    t.toks <- toks;
    t.pos <- pos
  end;
  t.toks.(t.len) <- tok;
  t.pos.(t.len) <- packed;
  t.len <- t.len + 1

(* [src.[start + k ..)] and [kw.[k ..)] agree, for [kw] no longer
   than what is left of [src]. *)
let rec same_from src start kw k =
  k = String.length kw || (src.[start + k] = kw.[k] && same_from src start kw (k + 1))

(* [src.[start .. start + len)] = [kw], without a substring. *)
let is_word src start len kw = String.length kw = len && same_from src start kw 0

(* "end for" / "end if" would be ambiguous with "end" followed by a new
   loop, so the suffixed closers are single keywords. *)
let keywords =
  [ ("for", Token.KW_FOR); ("parallel", Token.KW_PARALLEL); ("to", Token.KW_TO);
    ("step", Token.KW_STEP); ("do", Token.KW_DO); ("end", Token.KW_END);
    ("endfor", Token.KW_END); ("endif", Token.KW_END); ("if", Token.KW_IF);
    ("then", Token.KW_THEN); ("else", Token.KW_ELSE); ("read", Token.KW_READ) ]

let rec word src start len = function
  | [] -> Token.IDENT (String.sub src start len)
  | (kw, tok) :: rest -> if is_word src start len kw then tok else word src start len rest

(* The value of the decimal digits [src.[k .. j)] after [acc], or -1
   past [max_int]: exactly what [int_of_string] accepts. *)
let rec int_value src k j acc =
  if k = j then acc
  else
    let d = Char.code src.[k] - 48 in
    if acc > (max_int - d) / 10 then -1 else int_value src (k + 1) j ((acc * 10) + d)

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize src =
  let n = String.length src in
  if n > max_source then invalid_arg "Lexer.tokenize: source too large";
  let t =
    let cap = 16 + (n / 4) in
    { toks = Array.make cap Token.EOF; pos = Array.make cap 0; len = 0 }
  in
  (* [line_start] is the index of the current line's first byte, so the
     column of index [i] is [i - line_start + 1]. *)
  let line = ref 1 and line_start = ref 0 in
  let at i = (!line lsl pos_bits) lor (i - !line_start + 1) in
  let error msg i = raise (Error (msg, Loc.make ~line:!line ~col:(i - !line_start + 1))) in
  let rec skip_comment i = if i < n && src.[i] <> '\n' then skip_comment (i + 1) else i in
  let rec digits_end i = if i < n && is_digit src.[i] then digits_end (i + 1) else i in
  let rec alnum_end i = if i < n && is_alnum src.[i] then alnum_end (i + 1) else i in
  (* Lex an operator that may be followed by '=' (e.g. "<" / "<=");
     [single] is [EOF] when the bare character is not a token. *)
  let two_char_op i c double single =
    if i + 1 < n && src.[i + 1] = '=' then (push t double (at i); i + 2)
    else if single != Token.EOF then (push t single (at i); i + 1)
    else error (Printf.sprintf "expected '=' after '%c'" c) i
  in
  let single tok i = push t tok (at i); i + 1 in
  let rec scan i =
    if i >= n then push t Token.EOF (at i)
    else
      match src.[i] with
      | '\n' ->
        incr line;
        line_start := i + 1;
        scan (i + 1)
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '#' -> scan (skip_comment i)
      | '0' .. '9' ->
        let j = digits_end i in
        let v = int_value src i j 0 in
        if v < 0 then
          error
            (Printf.sprintf "integer literal out of range: %s" (String.sub src i (j - i)))
            j;
        push t (Token.INT v) (at i);
        scan j
      | c when is_alpha c ->
        let j = alnum_end i in
        push t (word src i (j - i) keywords) (at i);
        scan j
      | '+' -> scan (single Token.PLUS i)
      | '-' -> scan (single Token.MINUS i)
      | '*' -> scan (single Token.STAR i)
      | '/' -> scan (single Token.SLASH i)
      | '(' -> scan (single Token.LPAREN i)
      | ')' -> scan (single Token.RPAREN i)
      | '[' -> scan (single Token.LBRACKET i)
      | ']' -> scan (single Token.RBRACKET i)
      | ',' -> scan (single Token.COMMA i)
      | '=' -> scan (two_char_op i '=' Token.EQ Token.ASSIGN)
      | '<' -> scan (two_char_op i '<' Token.LE Token.LT)
      | '>' -> scan (two_char_op i '>' Token.GE Token.GT)
      | '!' -> scan (two_char_op i '!' Token.NE Token.EOF)
      | c -> error (Printf.sprintf "unexpected character '%c'" c) i
  in
  scan 0;
  t
