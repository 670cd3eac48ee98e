(* Front-end tests: lexer, parser, pretty-printer round-trip, semantic
   checks, interpreter, and the trace oracle on the paper's motivating
   examples. *)

open Dda_lang

let program = Alcotest.testable Pretty.pp_program Ast.equal_program
let expr = Alcotest.testable Pretty.pp_expr Ast.equal_expr

(* The final value of a scalar after running the program. *)
let scalar_value ?inputs prog name =
  List.assoc_opt name (fst (Interp.final_state ?inputs prog)).Interp.scalars

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

(* The lexer as it was before it scanned by index: a [char option] per
   character, a [Loc.t] per loop turn, and the tokens in a list. Kept
   unchanged as the oracle the pull lexer must agree with, token for
   token, location for location, and error for error. *)
module Oracle_lexer = struct
  exception Error = Lexer.Error

  let keyword = function
    | "for" -> Some Token.KW_FOR
    | "parallel" -> Some Token.KW_PARALLEL
    | "to" -> Some Token.KW_TO
    | "step" -> Some Token.KW_STEP
    | "do" -> Some Token.KW_DO
    (* "end for" / "end if" would be ambiguous with "end" followed by a
       new loop, so the suffixed closers are single keywords. *)
    | "end" | "endfor" | "endif" -> Some Token.KW_END
    | "if" -> Some Token.KW_IF
    | "then" -> Some Token.KW_THEN
    | "else" -> Some Token.KW_ELSE
    | "read" -> Some Token.KW_READ
    | _ -> None

  let is_digit c = c >= '0' && c <= '9'
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_alnum c = is_alpha c || is_digit c

  type state = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
  }

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let advance st =
    (match peek st with
     | Some '\n' ->
       st.line <- st.line + 1;
       st.col <- 1
     | Some _ -> st.col <- st.col + 1
     | None -> ());
    st.pos <- st.pos + 1

  let here st = Loc.make ~line:st.line ~col:st.col

  let lex_number st =
    let start = st.pos in
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None -> raise (Error (Printf.sprintf "integer literal out of range: %s" text, here st))

  let lex_ident st =
    let start = st.pos in
    while (match peek st with Some c -> is_alnum c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match keyword text with Some kw -> kw | None -> Token.IDENT text

  let tokenize src =
    let st = { src; pos = 0; line = 1; col = 1 } in
    let toks = ref [] in
    let emit tok loc = toks := (tok, loc) :: !toks in
    let rec skip_comment () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        skip_comment ()
    in
    (* Lex an operator that may be followed by '=' (e.g. "<" / "<=").
       [single_tok = None] means the bare character is not a token. *)
    let two_char_op loc c1 double_tok single_tok =
      advance st;
      match peek st with
      | Some '=' ->
        advance st;
        emit double_tok loc
      | _ -> (
          match single_tok with
          | Some t -> emit t loc
          | None -> raise (Error (Printf.sprintf "expected '=' after '%c'" c1, loc)))
    in
    let continue_lexing = ref true in
    while !continue_lexing do
      let loc = here st in
      match peek st with
      | None ->
        emit Token.EOF loc;
        continue_lexing := false
      | Some c -> (
          match c with
          | ' ' | '\t' | '\r' | '\n' -> advance st
          | '#' -> skip_comment ()
          | '0' .. '9' -> emit (lex_number st) loc
          | c when is_alpha c -> emit (lex_ident st) loc
          | '+' -> advance st; emit Token.PLUS loc
          | '-' -> advance st; emit Token.MINUS loc
          | '*' -> advance st; emit Token.STAR loc
          | '/' -> advance st; emit Token.SLASH loc
          | '(' -> advance st; emit Token.LPAREN loc
          | ')' -> advance st; emit Token.RPAREN loc
          | '[' -> advance st; emit Token.LBRACKET loc
          | ']' -> advance st; emit Token.RBRACKET loc
          | ',' -> advance st; emit Token.COMMA loc
          | '=' -> two_char_op loc '=' Token.EQ (Some Token.ASSIGN)
          | '<' -> two_char_op loc '<' Token.LE (Some Token.LT)
          | '>' -> two_char_op loc '>' Token.GE (Some Token.GT)
          | '!' -> two_char_op loc '!' Token.NE None
          | c -> raise (Error (Printf.sprintf "unexpected character '%c'" c, loc)))
    done;
    List.rev !toks
end

let lexed = Lexer.tokenize
let toks src = List.map fst (lexed src)

let test_lexer_basics () =
  Alcotest.(check int) "eof only" 1 (List.length (toks ""));
  Alcotest.(check bool) "keywords" true
    (toks "for to step do end if then else read"
     = Token.[ KW_FOR; KW_TO; KW_STEP; KW_DO; KW_END; KW_IF; KW_THEN; KW_ELSE; KW_READ; EOF ]);
  Alcotest.(check bool) "operators" true
    (toks "+ - * / = == != < <= > >= ( ) [ ] ,"
     = Token.[ PLUS; MINUS; STAR; SLASH; ASSIGN; EQ; NE; LT; LE; GT; GE;
               LPAREN; RPAREN; LBRACKET; RBRACKET; COMMA; EOF ]);
  Alcotest.(check bool) "numbers and idents" true
    (toks "a1 42 foo_bar" = Token.[ IDENT "a1"; INT 42; IDENT "foo_bar"; EOF ]);
  Alcotest.(check bool) "comments skipped" true
    (toks "a # comment here\nb" = Token.[ IDENT "a"; IDENT "b"; EOF ])

let test_lexer_locations () =
  let spanned = lexed "a\n  b" in
  match spanned with
  | [ (Token.IDENT "a", l1); (Token.IDENT "b", l2); (Token.EOF, _) ] ->
    Alcotest.(check int) "a line" 1 l1.Loc.line;
    Alcotest.(check int) "a col" 1 l1.Loc.col;
    Alcotest.(check int) "b line" 2 l2.Loc.line;
    Alcotest.(check int) "b col" 3 l2.Loc.col
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_errors () =
  let fails src =
    try ignore (Lexer.tokenize src); false with Lexer.Error _ -> true
  in
  Alcotest.(check bool) "bad char" true (fails "a $ b");
  Alcotest.(check bool) "lone bang" true (fails "a ! b");
  Alcotest.(check bool) "huge literal" true
    (fails "999999999999999999999999999999")

(* The pull lexer against the oracle: the same tokens at the
   same locations, or the same error message at the same location. *)
let lex_outcome tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Lexer.Error (msg, loc) -> Error (msg, loc)

let show_outcome = function
  | Ok toks -> Printf.sprintf "%d tokens" (List.length toks)
  | Error (msg, loc) -> Printf.sprintf "error %s at %s" msg (Loc.to_string loc)

let rec first_difference i a b =
  match (a, b) with
  | (t1, l1) :: a', (t2, l2) :: b' when Token.equal t1 t2 && Loc.equal l1 l2 ->
    first_difference (i + 1) a' b'
  | (t1, l1) :: _, (t2, l2) :: _ ->
    Some
      (Printf.sprintf "token %d: %s at %s, oracle %s at %s" i (Token.to_string t1)
         (Loc.to_string l1) (Token.to_string t2) (Loc.to_string l2))
  | [], [] -> None
  | _ -> Some (Printf.sprintf "lengths differ after token %d" i)

let lexers_agree src =
  let got = lex_outcome lexed src and want = lex_outcome Oracle_lexer.tokenize src in
  let diff =
    match (got, want) with
    | Ok a, Ok b -> first_difference 0 a b
    | Error (m1, l1), Error (m2, l2) when String.equal m1 m2 && Loc.equal l1 l2 -> None
    | _ -> Some (Printf.sprintf "%s, oracle %s" (show_outcome got) (show_outcome want))
  in
  match diff with
  | None -> true
  | Some d ->
    QCheck.Test.fail_reportf "lexers disagree (%s) on a %d-byte source starting:@.%s" d
      (String.length src)
      (String.sub src 0 (min 200 (String.length src)))

(* Edits that reach the lexer's error paths and its line bookkeeping:
   each inserts at byte [at] (clamped to the source), or rewrites the
   whole source. *)
let mutations =
  let insert text src at =
    let at = min at (String.length src) in
    String.sub src 0 at ^ text ^ String.sub src at (String.length src - at)
  in
  [ ("none", fun src _ -> src);
    ("dollar", insert "$");
    ("lone bang", insert "! ");
    ("30-digit literal", insert " 123456789012345678901234567890 ");
    ("comment at end of file", fun src _ -> src ^ "\n# trailing comment");
    ("crlf line ends", fun src _ -> String.concat "\r\n" (String.split_on_char '\n' src));
    ("trailing identifier", fun src _ -> src ^ "tail_1") ]

let test_lexer_oracle_perfect () =
  List.iter
    (fun spec ->
       let src = Dda_perfect.Programs.source spec in
       List.iter
         (fun (_, mutate) -> ignore (lexers_agree (mutate src (String.length src / 2))))
         mutations)
    Dda_perfect.Programs.all

let prop_lexer_oracle =
  QCheck.Test.make ~name:"lexer agrees with the oracle on mutated fuzz sources" ~count:400
    QCheck.(
      make
        ~print:(fun (profile, seed, index, (name, _), at) ->
            Printf.sprintf "%s seed %d index %d, %s at %d"
              (Dda_perfect.Fuzz.profile_name profile) seed index name at)
        Gen.(
          map
            (fun ((profile, seed, index), (mutation, at)) -> (profile, seed, index, mutation, at))
            (pair
               (triple (oneofl Dda_perfect.Fuzz.all_profiles) (int_bound 1000) (int_bound 50))
               (pair (oneofl mutations) (int_bound 4000)))))
    (fun (profile, seed, index, (_, mutate), at) ->
       lexers_agree (mutate (Dda_perfect.Fuzz.program profile ~seed ~index) at))

(* A lexical error anywhere wins over a syntax error before it, as
   though the whole input were lexed first: the parser scans the rest
   of the input before it reports a syntax error. *)
let lexical_error_wins ~what src ~msg ~loc =
  match Parser.parse_program src with
  | _ -> Alcotest.failf "%s: expected an error" what
  | exception Lexer.Error (m, l) ->
    Alcotest.(check string) (what ^ ": message") msg m;
    Alcotest.(check string) (what ^ ": location") loc (Loc.to_string l)
  | exception Parser.Error (m, _) -> Alcotest.failf "%s: syntax error won: %s" what m

let test_lexical_error_wins () =
  lexical_error_wins ~what:"after a syntax error" "a = )\nb = 1 $"
    ~msg:"unexpected character '$'" ~loc:"2:7";
  lexical_error_wins ~what:"after 'expected end of input'" "a = 1 end\nb = c ! d"
    ~msg:"expected '=' after '!'" ~loc:"2:7";
  lexical_error_wins ~what:"out-of-range literal after a syntax error"
    "for i = 1 to do\n  a[i] = 123456789012345678901234567890\nend"
    ~msg:"integer literal out of range: 123456789012345678901234567890" ~loc:"2:40";
  (* With nothing to lex wrongly after it, the syntax error stands. *)
  match Parser.parse_program "a = 1 end\nb = 2" with
  | _ -> Alcotest.fail "expected an error"
  | exception Parser.Error (msg, loc) ->
    Alcotest.(check string) "message" "expected end of input (found 'end')" msg;
    Alcotest.(check string) "location" "1:7" (Loc.to_string loc)

(* On mutated fuzz sources: the parser raises a lexical error exactly
   where the oracle lexer fails, with its message and location. *)
let prop_parse_lexical_errors =
  QCheck.Test.make ~name:"parse errors are lexical exactly where the oracle lexer fails"
    ~count:400
    QCheck.(
      make
        ~print:(fun (profile, seed, index, (name, _), at) ->
            Printf.sprintf "%s seed %d index %d, %s at %d"
              (Dda_perfect.Fuzz.profile_name profile) seed index name at)
        Gen.(
          map
            (fun ((profile, seed, index), (mutation, at)) -> (profile, seed, index, mutation, at))
            (pair
               (triple (oneofl Dda_perfect.Fuzz.all_profiles) (int_bound 1000) (int_bound 50))
               (pair (oneofl mutations) (int_bound 4000)))))
    (fun (profile, seed, index, (_, mutate), at) ->
       let src = mutate (Dda_perfect.Fuzz.program profile ~seed ~index) at in
       let parsed =
         match Parser.parse_program src with
         | _ -> None
         | exception Parser.Error _ -> None
         | exception Lexer.Error (msg, loc) -> Some (msg, loc)
       in
       match (parsed, lex_outcome Oracle_lexer.tokenize src) with
       | None, Ok _ -> true
       | Some (m1, l1), Error (m2, l2) when String.equal m1 m2 && Loc.equal l1 l2 -> true
       | _, want ->
         QCheck.Test.fail_reportf "parser %s, oracle lexer %s"
           (match parsed with
            | None -> "no lexical error"
            | Some (m, l) -> Printf.sprintf "error %s at %s" m (Loc.to_string l))
           (show_outcome want))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_paper_intro () =
  (* First loop of the paper's introduction. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i] = a[i+10] + 3 endfor" in
  let expected =
    [
      Ast.for_ "i" (Ast.int_ 1) (Ast.int_ 10)
        [
          Ast.assign
            (Ast.Larr ("a", [ Ast.var "i" ]))
            (Ast.bin Ast.Add
               (Ast.aref "a" [ Ast.bin Ast.Add (Ast.var "i") (Ast.int_ 10) ])
               (Ast.int_ 3));
        ];
    ]
  in
  Alcotest.check program "intro loop" expected prog

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    (Ast.bin Ast.Add (Ast.var "a") (Ast.bin Ast.Mul (Ast.var "b") (Ast.var "c")))
    (Parser.parse_expr "a + b * c");
  Alcotest.check expr "parens override"
    (Ast.bin Ast.Mul (Ast.bin Ast.Add (Ast.var "a") (Ast.var "b")) (Ast.var "c"))
    (Parser.parse_expr "(a + b) * c");
  Alcotest.check expr "left assoc sub"
    (Ast.bin Ast.Sub (Ast.bin Ast.Sub (Ast.var "a") (Ast.var "b")) (Ast.var "c"))
    (Parser.parse_expr "a - b - c");
  Alcotest.check expr "unary minus"
    (Ast.bin Ast.Add (Ast.var "a") (Ast.neg (Ast.var "b")))
    (Parser.parse_expr "a + -b")

let test_parse_full_features () =
  let src =
    "read(n)\n\
     for i = 1 to n step 2 do\n\
    \  if i < n then\n\
    \    a[i][i+1] = b[2*i] + 1\n\
    \  else\n\
    \    t = t / 2\n\
    \  endif\n\
     endfor"
  in
  match Parser.parse_program src with
  | [ { sdesc = Ast.Read "n"; _ }; { sdesc = Ast.For f; _ } ] ->
    Alcotest.(check string) "loop var" "i" f.var;
    Alcotest.(check bool) "has step" true (f.step <> None);
    (match f.body with
     | [ { sdesc = Ast.If (_, [ _ ], [ _ ]); _ } ] -> ()
     | _ -> Alcotest.fail "expected if with one stmt per branch")
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let fails src =
    try ignore (Parser.parse_program src); false with Parser.Error _ -> true
  in
  Alcotest.(check bool) "missing do" true (fails "for i = 1 to 10 a[i] = 1 end");
  Alcotest.(check bool) "missing end" true (fails "for i = 1 to 10 do a[i] = 1");
  Alcotest.(check bool) "bad expr" true (fails "a[i] = +");
  Alcotest.(check bool) "trailing junk" true (fails "a = 1 )");
  Alcotest.(check bool) "missing bracket" true (fails "a[i = 3")

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip                                           *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (pretty p) = p" ~count:300
    Test_support.Gen_ast.arb_program
    (fun p ->
       let printed = Pretty.program_to_string p in
       match Parser.parse_program printed with
       | p' -> Ast.equal_program p p'
       | exception (Parser.Error (msg, loc)) ->
         QCheck.Test.fail_reportf "parse error %s at %s on:@.%s" msg
           (Loc.to_string loc) printed)

(* The front end must never crash on garbage: any byte string either
   parses or raises the two documented exceptions. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total (errors, never crashes)" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun s ->
       match Parser.parse_program s with
       | _ -> true
       | exception Parser.Error _ -> true
       | exception Lexer.Error _ -> true)

(* Token soup: sequences of valid tokens stress the parser's error
   recovery more than random bytes do. *)
let prop_parser_total_token_soup =
  QCheck.Test.make ~name:"parser is total on token soup" ~count:1000
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 30)
            (oneofl
               [ "for"; "to"; "do"; "end"; "if"; "then"; "else"; "read"; "step";
                 "i"; "a"; "(„ÅÇ"; "1"; "42"; "+"; "-"; "*"; "/"; "="; "==";
                 "<"; "<="; ">"; ">="; "!="; "("; ")"; "["; "]"; "," ])
          >>= fun toks -> return (String.concat " " toks)))
    (fun s ->
       match Parser.parse_program s with
       | _ -> true
       | exception Parser.Error _ -> true
       | exception Lexer.Error _ -> true)

let test_roundtrip_tricky () =
  (* Cases where precedence-aware printing matters. *)
  List.iter
    (fun src ->
       let e = Parser.parse_expr src in
       let printed = Pretty.expr_to_string e in
       Alcotest.check expr src e (Parser.parse_expr printed))
    [
      "a - (b - c)";
      "a / (b / c)";
      "-(a + b)";
      "-a * b";
      "(a + b) * (c - d)";
      "a - -b";
      "2 * a[i + -1][j]";
    ]

(* ------------------------------------------------------------------ *)
(* Semantic checks                                                     *)
(* ------------------------------------------------------------------ *)

let errors_of src = Semant.check (Parser.parse_program src)

let test_semant_accepts () =
  Alcotest.(check int) "clean program" 0
    (List.length
       (errors_of
          "read(n)\nfor i = 1 to n do\n  a[i] = a[i-1] + n\nend"))

let test_semant_rejects () =
  let has_error src = errors_of src <> [] in
  Alcotest.(check bool) "assign to loop var" true
    (has_error "for i = 1 to 10 do i = 3 end");
  Alcotest.(check bool) "shadowed loop var" true
    (has_error "for i = 1 to 10 do for i = 1 to 10 do a[i] = 1 end end");
  Alcotest.(check bool) "rank mismatch" true
    (has_error "for i = 1 to 10 do a[i] = a[i][i] end");
  Alcotest.(check bool) "zero step" true
    (has_error "for i = 1 to 10 step 0 do a[i] = 1 end");
  Alcotest.(check bool) "non-constant step" true
    (has_error "read(n)\nfor i = 1 to 10 step n do a[i] = 1 end");
  Alcotest.(check bool) "undefined scalar" true
    (has_error "a[1] = q + 1");
  Alcotest.(check bool) "read into loop var" true
    (has_error "for i = 1 to 10 do read(i) end")

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_interp_scalars () =
  let prog = Parser.parse_program "t = 2\nu = t * 3 + 1" in
  Alcotest.(check (option int)) "u = 7" (Some 7) (scalar_value prog "u")

let test_interp_loop_sum () =
  (* Sum 1..10 into acc. *)
  let prog = Parser.parse_program "acc = 0\nfor i = 1 to 10 do acc = acc + i end" in
  Alcotest.(check (option int)) "sum" (Some 55) (scalar_value prog "acc")

let test_interp_step_and_if () =
  let prog =
    Parser.parse_program
      "acc = 0\nfor i = 1 to 10 step 2 do\n  if i > 5 then acc = acc + i end\nend"
  in
  (* i in {1,3,5,7,9}; those > 5 sum to 16. *)
  Alcotest.(check (option int)) "sum" (Some 16) (scalar_value prog "acc");
  let down =
    Parser.parse_program "acc = 0\nfor i = 5 to 1 step -2 do acc = acc + i end"
  in
  Alcotest.(check (option int)) "downward" (Some 9) (scalar_value down "acc")

let test_interp_inputs () =
  let prog = Parser.parse_program "read(n)\nt = n + 1" in
  Alcotest.(check (option int)) "input used" (Some 6)
    (scalar_value ~inputs:[ ("n", 5) ] prog "t");
  Alcotest.(check (option int)) "default 0" (Some 1) (scalar_value prog "t")

let test_interp_memory () =
  let prog = Parser.parse_program "a[3] = 7\nt = a[3] + a[4]" in
  Alcotest.(check (option int)) "load stored and default" (Some 7)
    (scalar_value prog "t")

let test_interp_trace () =
  let prog = Parser.parse_program "for i = 1 to 3 do a[i] = a[i+1] end" in
  let accesses = Interp.run prog in
  (* Per iteration: one read, one write. *)
  Alcotest.(check int) "6 accesses" 6 (List.length accesses);
  let writes = List.filter (fun (a : Interp.access) -> a.role = `Write) accesses in
  Alcotest.(check int) "3 writes" 3 (List.length writes);
  List.iteri
    (fun k (a : Interp.access) ->
       Alcotest.(check (list (pair string int))) "iteration vector"
         [ ("i", k + 1) ]
         (List.map (fun (f : Interp.frame) -> (f.var, f.value)) a.frames);
       Alcotest.(check (list int)) "indices" [ k + 1 ] a.indices)
    writes

let test_interp_fuel () =
  let prog = Parser.parse_program "for i = 1 to 1000 do a[i] = i end" in
  Alcotest.(check bool) "fuel exhausts" true
    (try ignore (Interp.run ~fuel:50 prog); false
     with Interp.Runtime_error ("execution budget exhausted", _) -> true);
  Alcotest.(check int) "enough fuel" 1000
    (List.length (Interp.run ~fuel:2000 prog));
  Alcotest.(check int) "unlimited by default" 1000 (List.length (Interp.run prog))

let test_interp_div_by_zero () =
  let prog = Parser.parse_program "t = 1 / 0" in
  Alcotest.(check bool) "raises" true
    (try ignore (Interp.run prog); false with Interp.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Trace oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* The single distinct-site pair of a one-statement loop (self pairs of
   the write are also enumerated; skip them). *)
let sites_of prog =
  match
    List.filter (fun (s1, s2, _) -> not (Loc.equal s1 s2)) (Trace.all_site_pairs prog)
  with
  | [ (s1, s2, _) ] -> (s1, s2)
  | pairs -> Alcotest.fail (Printf.sprintf "expected 1 pair, got %d" (List.length pairs))

let test_oracle_intro_independent () =
  (* Paper intro, first loop: writes a[1..10], reads a[11..20]. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i] = a[i+10] + 3 end" in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "independent" false obs.dependent

let test_oracle_intro_dependent () =
  (* Paper intro, second loop: a[i+1] = a[i] + 3, distance 1. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i+1] = a[i] + 3 end" in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "dependent" true obs.dependent;
  Alcotest.(check bool) "direction <" true (obs.directions = [ [ Trace.Lt ] ]);
  Alcotest.(check bool) "distance 1" true (obs.distances = [ [ 1 ] ])

let test_oracle_self_pair () =
  (* A write site paired with itself: a[i] = ... never overlaps across
     distinct iterations; a[i/2]-style would. Use a[5] which always hits
     the same cell. *)
  let prog = Parser.parse_program "for i = 1 to 4 do a[5] = i end" in
  (match Trace.all_site_pairs prog with
   | [ (s1, s2, "a") ] ->
     Alcotest.(check bool) "self pair" true (Loc.equal s1 s2);
     let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
     Alcotest.(check bool) "output dependent" true obs.dependent;
     Alcotest.(check bool) "all non-eq directions" true
       (obs.directions = [ [ Trace.Lt ]; [ Trace.Gt ] ])
   | _ -> Alcotest.fail "expected single self pair");
  let indep = Parser.parse_program "for i = 1 to 4 do a[i] = i end" in
  (match Trace.all_site_pairs indep with
   | [ (s1, s2, "a") ] ->
     let obs = Trace.observe indep ~site1:s1 ~site2:s2 in
     Alcotest.(check bool) "disjoint writes independent" false obs.dependent
   | _ -> Alcotest.fail "expected single self pair")

let test_oracle_multi_vector () =
  (* Paper section 6: a[i][j] = a[2i][j] has direction vectors "(<,=)"
     and "(=,any)". Here the write is a[i][j], read a[2i][j]. *)
  let prog =
    Parser.parse_program
      "for i = 0 to 10 do for j = 0 to 10 do a[i][j] = a[2*i][j] + 7 end end"
  in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "dependent" true obs.dependent;
  (* Observed directions on (i, j): i = 2i' only for i = i' = 0 giving
     (=,...); write at i later read at 2i gives (<, =) instances; no
     (>, _) since 2i >= i on this range. Check that (=,=) and (<,=) are
     both observed. *)
  (* Overlap needs i = 2i', so the write's iteration is >= the read's:
     (=,=) at i = i' = 0 and (>,=) for i' >= 1. *)
  Alcotest.(check bool) "(=,=) observed" true
    (List.mem [ Trace.Eq; Trace.Eq ] obs.directions);
  Alcotest.(check bool) "(>,=) observed" true
    (List.mem [ Trace.Gt; Trace.Eq ] obs.directions);
  Alcotest.(check bool) "no (<,_) observed" true
    (List.for_all (function Trace.Lt :: _ -> false | _ -> true) obs.directions)

let test_oracle_pair_enumeration () =
  let prog =
    Parser.parse_program
      "for i = 1 to 3 do\n  a[i] = b[i] + a[i]\n  b[i+1] = a[i] * 2\nend"
  in
  (* References: writes a[i] (w1), b[i+1] (w2); reads b[i], a[i](rhs1),
     a[i](rhs2). Pairs on same array with a write:
     a: w1-w1, w1-r_a1, w1-r_a2; b: r_b-w2 (order by position), w2-w2.
     That's 5. *)
  Alcotest.(check int) "pair count" 5 (List.length (Trace.all_site_pairs prog))

(* [Trace.observe] as it was before runs were indexed by cell: the
   cross product of the two sites' accesses. The indexed queries must
   agree with it exactly. *)
let cross_product_observe accesses ~site1 ~site2 =
  let at site = List.filter (fun (a : Interp.access) -> Loc.equal a.site site) accesses in
  let a1s = at site1 and a2s = at site2 in
  let self = Loc.equal site1 site2 in
  let directions = ref [] and distances = ref [] and dependent = ref false in
  List.iter
    (fun (a1 : Interp.access) ->
       List.iter
         (fun (a2 : Interp.access) ->
            let same_cell = String.equal a1.array a2.array && a1.indices = a2.indices in
            let same_instance = self && a1.time = a2.time in
            if same_cell && not same_instance then begin
              dependent := true;
              let n = List.length (Trace.common_loops a1 a2) in
              let vals (a : Interp.access) =
                List.rev a.frames
                |> List.filteri (fun i _ -> i < n)
                |> List.map (fun (f : Interp.frame) -> f.value)
              in
              let v1 = vals a1 and v2 = vals a2 in
              directions :=
                List.map2
                  (fun x y -> if x < y then Trace.Lt else if x = y then Trace.Eq else Trace.Gt)
                  v1 v2
                :: !directions;
              distances := List.map2 (fun x y -> y - x) v1 v2 :: !distances
            end)
         a2s)
    a1s;
  { Trace.dependent = !dependent;
    directions = List.sort_uniq (List.compare Trace.compare_direction) !directions;
    distances = List.sort_uniq (List.compare Stdlib.compare) !distances }

let prop_trace_indexed =
  QCheck.Test.make ~name:"indexed trace queries equal the cross product" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 50))
    (fun (seed, index) ->
       let prog = Parser.parse_program (Dda_perfect.Fuzz.program Small ~seed ~index) in
       let accesses = Interp.run prog and run = Trace.execute prog in
       List.for_all
         (fun (site1, site2, _) ->
            let want = cross_product_observe accesses ~site1 ~site2 in
            Trace.observe_in run ~site1 ~site2 = want
            && Trace.dependent_in run ~site1 ~site2 = want.dependent)
         (Trace.all_site_pairs prog))

let test_interp_overflow () =
  let overflows src =
    match Interp.run (Parser.parse_program src) with
    | _ -> false
    | exception Interp.Runtime_error ("integer overflow", _) -> true
  in
  let big = string_of_int max_int in
  Alcotest.(check bool) "add" true (overflows (Printf.sprintf "t = %s + 1" big));
  Alcotest.(check bool) "sub" true (overflows (Printf.sprintf "t = -%s - 2" big));
  Alcotest.(check bool) "mul" true (overflows (Printf.sprintf "t = %s * 2" big));
  Alcotest.(check bool) "subscript" true
    (overflows (Printf.sprintf "for i = 1 to 3 do a[i * %s] = 1 end" big));
  Alcotest.(check bool) "trip count" true
    (overflows (Printf.sprintf "for i = -%s to %s do a[1] = 1 end" big big));
  Alcotest.(check bool) "in range" false (overflows (Printf.sprintf "t = %s - 1 + 1" big));
  Alcotest.(check int) "last iteration at max_int" 2
    (List.length
       (Interp.run (Parser.parse_program (Printf.sprintf "for i = %s - 1 to %s do a[i] = 1 end" big big))));
  let neg_min = Parser.parse_program "read(n)\nt = -n" in
  Alcotest.(check bool) "negating min_int" true
    (match Interp.run ~inputs:[ ("n", min_int) ] neg_min with
     | _ -> false
     | exception Interp.Runtime_error ("integer overflow", _) -> true);
  let div_min = Parser.parse_program "read(n)\nt = n / -1" in
  Alcotest.(check bool) "min_int / -1" true
    (match Interp.run ~inputs:[ ("n", min_int) ] div_min with
     | _ -> false
     | exception Interp.Runtime_error ("integer overflow", _) -> true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "locations" `Quick test_lexer_locations;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "oracle on PERFECT" `Quick test_lexer_oracle_perfect;
          Alcotest.test_case "lexical error wins" `Quick test_lexical_error_wins;
          qt prop_lexer_oracle;
          qt prop_parse_lexical_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper intro" `Quick test_parse_paper_intro;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "full features" `Quick test_parse_full_features;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "tricky precedence" `Quick test_roundtrip_tricky;
          qt prop_roundtrip;
          qt prop_parser_total;
          qt prop_parser_total_token_soup;
        ] );
      ( "semant",
        [
          Alcotest.test_case "accepts clean" `Quick test_semant_accepts;
          Alcotest.test_case "rejects bad" `Quick test_semant_rejects;
        ] );
      ( "interp",
        [
          Alcotest.test_case "scalars" `Quick test_interp_scalars;
          Alcotest.test_case "loop sum" `Quick test_interp_loop_sum;
          Alcotest.test_case "step and if" `Quick test_interp_step_and_if;
          Alcotest.test_case "inputs" `Quick test_interp_inputs;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "trace" `Quick test_interp_trace;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "integer overflow" `Quick test_interp_overflow;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "intro independent" `Quick test_oracle_intro_independent;
          Alcotest.test_case "intro dependent" `Quick test_oracle_intro_dependent;
          Alcotest.test_case "self pair" `Quick test_oracle_self_pair;
          Alcotest.test_case "multiple vectors" `Quick test_oracle_multi_vector;
          Alcotest.test_case "pair enumeration" `Quick test_oracle_pair_enumeration;
          qt prop_trace_indexed;
        ] );
    ]
