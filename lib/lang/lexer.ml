exception Error of string * Loc.t

(* A pull lexer: the scan position and the one current token, all in
   int fields (the kind is an immediate), so moving to the next token
   stores no pointer and allocates nothing. A token never spans a line
   and the blanks after it are scanned only by the next [advance], so
   [line] and [line_start] are the current token's. *)
type t = {
  src : string;
  mutable line : int;
  mutable line_start : int;  (* the index of that line's first byte *)
  mutable kind : Token.kind;
  mutable value : int;  (* an [Int]'s value *)
  mutable start : int;
  mutable stop : int;  (* just past the token: where the next scan starts *)
}

let kind t = t.kind
let int_value t = t.value
(* Most names are one letter (93% of the identifiers of the serve
   corpus and of PERFECT): those share one string per letter instead
   of a copy each. *)
let one_letter = Array.init 256 (fun k -> String.make 1 (Char.chr k))

let text t =
  if t.stop - t.start = 1 then one_letter.(Char.code t.src.[t.start])
  else String.sub t.src t.start (t.stop - t.start)
let loc t = Loc.make ~line:t.line ~col:(t.start - t.line_start + 1)

(* [src.[start + k ..)] and [kw.[k ..)] agree, for [kw] no longer
   than what is left of [src]. *)
let rec same_from src start kw k =
  k = String.length kw || (src.[start + k] = kw.[k] && same_from src start kw (k + 1))

(* [src.[start .. start + len)] = [kw], without a substring. *)
let is_word src start len kw = String.length kw = len && same_from src start kw 0

(* The kind of the word [src.[start .. start + len)], dispatched on its
   first letter. "end for" / "end if" would be ambiguous with "end"
   followed by a new loop, so the suffixed closers are single
   keywords. *)
let word src start len : Token.kind =
  match src.[start] with
  | 'd' -> if is_word src start len "do" then Do else Ident
  | 'e' ->
    if is_word src start len "end" || is_word src start len "endfor"
       || is_word src start len "endif"
    then End
    else if is_word src start len "else" then Else
    else Ident
  | 'f' -> if is_word src start len "for" then For else Ident
  | 'i' -> if is_word src start len "if" then If else Ident
  | 'p' -> if is_word src start len "parallel" then Parallel else Ident
  | 'r' -> if is_word src start len "read" then Read else Ident
  | 's' -> if is_word src start len "step" then Step else Ident
  | 't' ->
    if is_word src start len "to" then To
    else if is_word src start len "then" then Then
    else Ident
  | _ -> Ident

(* The value of the decimal digits [src.[k .. j)] after [acc], or -1
   past [max_int]: exactly what [int_of_string] accepts. *)
let rec int_value_of src k j acc =
  if k = j then acc
  else
    let d = Char.code src.[k] - 48 in
    if acc > (max_int - d) / 10 then -1 else int_value_of src (k + 1) j ((acc * 10) + d)

(* The scan loops run once per byte, so they read without bounds checks
   ([i < n] is tested first) and classify a byte with one table load:
   '1' marks a letter or '_', '2' a digit. *)
let classes =
  String.init 256 (fun k ->
      match Char.chr k with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> '1'
      | '0' .. '9' -> '2'
      | _ -> '0')

let is_alnum c = String.unsafe_get classes (Char.code c) <> '0'
let is_digit c = String.unsafe_get classes (Char.code c) = '2'

let rec digits_end src n i =
  if i < n && is_digit (String.unsafe_get src i) then digits_end src n (i + 1) else i

let rec alnum_end src n i =
  if i < n && is_alnum (String.unsafe_get src i) then alnum_end src n (i + 1) else i

let rec comment_end src n i =
  if i < n && String.unsafe_get src i <> '\n' then comment_end src n (i + 1) else i

let error t msg i = raise (Error (msg, Loc.make ~line:t.line ~col:(i - t.line_start + 1)))

let set t (kind : Token.kind) i stop =
  t.kind <- kind;
  t.start <- i;
  t.stop <- stop

(* An operator that may be followed by '=' (e.g. "<" / "<="); [single]
   is [Eof] when the bare character is not a token. *)
let two_char_op t src n i c (double : Token.kind) (single : Token.kind) =
  if i + 1 < n && String.unsafe_get src (i + 1) = '=' then set t double i (i + 2)
  else if single <> Eof then set t single i (i + 1)
  else error t (Printf.sprintf "expected '=' after '%c'" c) i

(* The token at the first byte from [i] that is not a blank, a newline
   or in a comment, keeping the line bookkeeping. *)
let rec scan t src n i =
  if i >= n then set t Eof i i
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> scan t src n (i + 1)
    | '\n' ->
      t.line <- t.line + 1;
      t.line_start <- i + 1;
      scan t src n (i + 1)
    | '#' -> scan t src n (comment_end src n i)
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let j = alnum_end src n (i + 1) in
      set t (word src i (j - i)) i j
    | '0' .. '9' ->
      let j = digits_end src n (i + 1) in
      let v = int_value_of src i j 0 in
      if v < 0 then
        error t (Printf.sprintf "integer literal out of range: %s" (String.sub src i (j - i))) j;
      t.value <- v;
      set t Int i j
    | '+' -> set t Plus i (i + 1)
    | '-' -> set t Minus i (i + 1)
    | '*' -> set t Star i (i + 1)
    | '/' -> set t Slash i (i + 1)
    | '(' -> set t Lparen i (i + 1)
    | ')' -> set t Rparen i (i + 1)
    | '[' -> set t Lbracket i (i + 1)
    | ']' -> set t Rbracket i (i + 1)
    | ',' -> set t Comma i (i + 1)
    | '=' -> two_char_op t src n i '=' Eq Assign
    | '<' -> two_char_op t src n i '<' Le Lt
    | '>' -> two_char_op t src n i '>' Ge Gt
    | '!' -> two_char_op t src n i '!' Ne Eof
    | c -> error t (Printf.sprintf "unexpected character '%c'" c) i

let advance t = scan t t.src (String.length t.src) t.stop

let create src =
  let t =
    { src; line = 1; line_start = 0; kind = Eof; value = 0; start = 0; stop = 0 }
  in
  advance t;
  t

let rec scan_rest t =
  if t.kind <> Eof then begin
    advance t;
    scan_rest t
  end

let token t : Token.t =
  match t.kind with
  | Int -> INT t.value
  | Ident -> IDENT (text t)
  | For -> KW_FOR
  | Parallel -> KW_PARALLEL
  | To -> KW_TO
  | Step -> KW_STEP
  | Do -> KW_DO
  | End -> KW_END
  | If -> KW_IF
  | Then -> KW_THEN
  | Else -> KW_ELSE
  | Read -> KW_READ
  | Plus -> PLUS
  | Minus -> MINUS
  | Star -> STAR
  | Slash -> SLASH
  | Assign -> ASSIGN
  | Eq -> EQ
  | Ne -> NE
  | Lt -> LT
  | Le -> LE
  | Gt -> GT
  | Ge -> GE
  | Lparen -> LPAREN
  | Rparen -> RPAREN
  | Lbracket -> LBRACKET
  | Rbracket -> RBRACKET
  | Comma -> COMMA
  | Eof -> EOF

let tokenize src =
  let t = create src in
  let rec go acc =
    let acc = (token t, loc t) :: acc in
    if t.kind = Eof then List.rev acc
    else begin
      advance t;
      go acc
    end
  in
  go []
