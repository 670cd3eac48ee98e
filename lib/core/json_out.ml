open Dda_lang

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean_from s i =
  i = String.length s || ((not (needs_escape (String.unsafe_get s i))) && clean_from s (i + 1))

(* Most keys and values need no escaping: those are checked without a
   closure and written as-is, without a copy. *)
let write_string buf s =
  Buffer.add_char buf '"';
  if clean_from s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
         match c with
         | '"' -> Buffer.add_string buf "\\\""
         | '\\' -> Buffer.add_string buf "\\\\"
         | '\n' -> Buffer.add_string buf "\\n"
         | '\r' -> Buffer.add_string buf "\\r"
         | '\t' -> Buffer.add_string buf "\\t"
         | c when Char.code c < 0x20 ->
           Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
         | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Digits of [n <= 0], most significant first. Working on the
   non-positive side keeps [min_int], which has no positive
   counterpart, exact. *)
let rec write_nonpos buf n =
  if n <= -10 then write_nonpos buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let write_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    write_nonpos buf n
  end
  else write_nonpos buf (-n)

let write_bool buf b = Buffer.add_string buf (if b then "true" else "false")

(* [%.15g], or [%.16g] or [%.17g] when fewer digits do not read back
   as [f], with ".0" added when it has neither a fraction nor an
   exponent, so the parser reads a float back and not an [Int].
   Starting at 15 digits keeps a value such as 70 from printing as
   "7e+01". JSON has no infinities or NaN. *)
let write_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
    in
    let s = shortest 15 in
    Buffer.add_string buf s;
    if not (String.exists (fun c -> c = '.' || c = 'e') s) then
      Buffer.add_string buf ".0"
  end

let write_list buf write_item = function
  | [] -> Buffer.add_string buf "[]"
  | x :: xs ->
    Buffer.add_char buf '[';
    write_item buf x;
    List.iter
      (fun x ->
         Buffer.add_char buf ',';
         write_item buf x)
      xs;
    Buffer.add_char buf ']'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> write_bool buf b
  | Int n -> write_int buf n
  | Float f -> write_float buf f
  | Str s -> write_string buf s
  | Raw s -> Buffer.add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    write buf item;
    write_items buf items;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buf '{';
    write_field buf field;
    write_fields buf fields;
    Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    write buf item;
    write_items buf items

and write_field buf (k, v) =
  write_string buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    write_field buf field;
    write_fields buf fields

(* ------------------------------------------------------------------ *)
(* The reused render buffer                                            *)
(* ------------------------------------------------------------------ *)

(* One buffer per domain, kept between calls, so that a rendering
   writes into bytes that already exist instead of doubling a fresh
   buffer up from 4 KB; [busy] is set while a writer holds it. A
   rendering longer than [retain_bytes] is not kept: [Buffer.reset]
   goes back to the 4 KB the buffer started with, so an idle domain
   keeps at most [retain_bytes] (buffer sizes are 4 KB times a power
   of two, and 512 KB is one). A kept buffer is live data, which the
   major GC paces its heap by: keeping 1 MB raised [perfect_batch]'s
   peak RSS by 1.3 MB, keeping 512 KB by nothing measurable. *)
type render_buffer = {
  buf : Buffer.t;
  mutable busy : bool;
}

let retain_bytes = 1 lsl 19

let render_buffer =
  Domain.DLS.new_key (fun () -> { buf = Buffer.create 4096; busy = false })

let release r =
  if Buffer.length r.buf > retain_bytes then Buffer.reset r.buf
  else Buffer.clear r.buf;
  r.busy <- false

let render write_to =
  let r = Domain.DLS.get render_buffer in
  if r.busy then begin
    (* Re-entered from inside a writer: a buffer of its own. *)
    let buf = Buffer.create 4096 in
    write_to buf;
    Buffer.contents buf
  end
  else begin
    r.busy <- true;
    match write_to r.buf with
    | () ->
      let s = Buffer.contents r.buf in
      release r;
      s
    | exception e ->
      release r;
      raise e
  end

let to_string = function
  | Raw s -> s
  | j -> render (fun buf -> write buf j)

let to_line j =
  render (fun buf ->
      write buf j;
      Buffer.add_char buf '\n')

(* ------------------------------------------------------------------ *)
(* Parsing (the subset this module emits)                              *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos >= n then '\x00' else s.[!pos] in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    (* Decode \uXXXX escapes back to UTF-8 bytes (no surrogate pairs:
       the emitter never produces them). *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; incr pos
             | '\\' -> Buffer.add_char buf '\\'; incr pos
             | '/' -> Buffer.add_char buf '/'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\x0c'; incr pos
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some code -> add_utf8 buf code; pos := !pos + 5
                | None -> fail "bad \\u escape")
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let digits () =
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done
  in
  (* An integer, or a float when a fraction or an exponent follows. *)
  let parse_number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    digits ();
    let integral = !pos in
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !pos = integral then
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> fail "bad number"
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin incr pos; List [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elems (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin incr pos; Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields (kv :: acc)
          | '}' -> incr pos; Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected a JSON value"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg

let rec pp fmt = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as j ->
    Format.pp_print_string fmt (to_string j)
  | Raw s -> (
      (* Indented output must not depend on whether a subtree was
         rendered ahead of time; text that does not parse (never
         written by this library) is printed as it is. *)
      match of_string s with
      | Ok j -> pp fmt j
      | Error _ -> Format.pp_print_string fmt s)
  | List [] -> Format.pp_print_string fmt "[]"
  | List items ->
    Format.fprintf fmt "[@[<v 1>";
    List.iteri
      (fun i item ->
         if i > 0 then Format.fprintf fmt ",@,";
         pp fmt item)
      items;
    Format.fprintf fmt "@]]"
  | Obj [] -> Format.pp_print_string fmt "{}"
  | Obj fields ->
    Format.fprintf fmt "{@[<v 1>";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Format.fprintf fmt ",@,";
         Format.fprintf fmt "%s: %a" (to_string (Str k)) pp v)
      fields;
    Format.fprintf fmt "@]}"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let loc (l : Loc.t) = Str (Loc.to_string l)
let role = function `Read -> Str "read" | `Write -> Str "write"

let vector r v =
  Obj
    [
      ("directions", Str (Direction.vector_to_string v));
      ("kind", Str (Analyzer.dep_kind_name (Analyzer.vector_kind r v)));
    ]

let outcome (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant d ->
    Obj [ ("verdict", Str (if d then "dependent" else "independent"));
          ("how", Str "constant-subscripts") ]
  | Analyzer.Gcd_independent ->
    Obj [ ("verdict", Str "independent"); ("how", Str "extended-gcd") ]
  | Analyzer.Assumed_dependent ->
    Obj [ ("verdict", Str "dependent"); ("how", Str "assumed-not-affine") ]
  | Analyzer.Tested t ->
    Obj
      ([
         ("verdict", Str (if t.dependent then "dependent" else "independent"));
         ("how", Str "tested");
         ("exact", Bool (not t.unknown));
       ]
       @ (match t.degraded with
          | Some reason -> [ ("degraded", Str (Budget.reason_name reason)) ]
          | None -> [])
       @ (match t.decided_by with
          | Some test -> [ ("decided_by", Str (Cascade.test_name test)) ]
          | None -> [])
       @ (if t.directions = [] then []
          else [ ("vectors", List (List.map (vector r) t.directions)) ])
       @
       match t.distance with
       | Some d ->
         [
           ( "distance",
             List
               (Array.to_list
                  (Array.map
                     (fun z ->
                        match Dda_numeric.Zint.to_int z with
                        | Some n -> Int n
                        | None -> Str (Dda_numeric.Zint.to_string z))
                     d)) );
         ]
       | None -> [])

let pair (r : Analyzer.pair_report) =
  Obj
    [
      ("array", Str r.array_name);
      ("ref1", Obj [ ("loc", loc r.loc1); ("role", role r.role1) ]);
      ("ref2", Obj [ ("loc", loc r.loc2); ("role", role r.role2) ]);
      ("self", Bool r.self_pair);
      ("common_loops", Int r.ncommon);
      ("outcome", outcome r);
    ]

(* ------------------------------------------------------------------ *)
(* The pair list, written straight into one buffer                     *)
(* ------------------------------------------------------------------ *)

(* Byte for byte what [write] makes of [List (List.map pair pairs)]:
   [pair] above stays the tree form (the tests' reference, and the
   tree the benchmark harness edits), this one skips building it. *)

let add = Buffer.add_string

let write_loc buf (l : Loc.t) =
  Buffer.add_char buf '"';
  write_int buf l.line;
  Buffer.add_char buf ':';
  write_int buf l.col;
  Buffer.add_char buf '"'

let write_role buf = function
  | `Read -> add buf "\"read\""
  | `Write -> add buf "\"write\""

let write_verdict buf dependent =
  add buf (if dependent then "{\"verdict\":\"dependent\"" else "{\"verdict\":\"independent\"")

(* Loops rather than iterators with closures: these run once per
   pair. *)
let write_vector buf r v =
  add buf "{\"directions\":\"";
  Direction.add_vector buf v;
  add buf "\",\"kind\":\"";
  add buf (Analyzer.dep_kind_name (Analyzer.vector_kind r v));
  add buf "\"}"

(* The vectors after the first, and the closing bracket. *)
let rec write_more_vectors buf r = function
  | [] -> Buffer.add_char buf ']'
  | v :: vs ->
    Buffer.add_char buf ',';
    write_vector buf r v;
    write_more_vectors buf r vs

let write_distance buf d =
  for i = 0 to Array.length d - 1 do
    if i > 0 then Buffer.add_char buf ',';
    let z = d.(i) in
    if Dda_numeric.Zint.is_small z then write_int buf (Dda_numeric.Zint.to_int_exn z)
    else
      match Dda_numeric.Zint.to_int z with
      | Some n -> write_int buf n
      | None -> write_string buf (Dda_numeric.Zint.to_string z)
  done

let write_outcome buf (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant d ->
    write_verdict buf d;
    add buf ",\"how\":\"constant-subscripts\"}"
  | Analyzer.Gcd_independent -> add buf "{\"verdict\":\"independent\",\"how\":\"extended-gcd\"}"
  | Analyzer.Assumed_dependent ->
    add buf "{\"verdict\":\"dependent\",\"how\":\"assumed-not-affine\"}"
  | Analyzer.Tested t ->
    write_verdict buf t.dependent;
    add buf ",\"how\":\"tested\",\"exact\":";
    write_bool buf (not t.unknown);
    (match t.degraded with
     | Some reason ->
       add buf ",\"degraded\":";
       write_string buf (Budget.reason_name reason)
     | None -> ());
    (match t.decided_by with
     | Some test ->
       add buf ",\"decided_by\":";
       write_string buf (Cascade.test_name test)
     | None -> ());
    (match t.directions with
     | [] -> ()
     | v :: vs ->
       add buf ",\"vectors\":[";
       write_vector buf r v;
       write_more_vectors buf r vs);
    (match t.distance with
     | Some d ->
       add buf ",\"distance\":[";
       write_distance buf d;
       Buffer.add_char buf ']'
     | None -> ());
    Buffer.add_char buf '}'

let write_pair buf (r : Analyzer.pair_report) =
  add buf "{\"array\":";
  write_string buf r.array_name;
  add buf ",\"ref1\":{\"loc\":";
  write_loc buf r.loc1;
  add buf ",\"role\":";
  write_role buf r.role1;
  add buf "},\"ref2\":{\"loc\":";
  write_loc buf r.loc2;
  add buf ",\"role\":";
  write_role buf r.role2;
  add buf "},\"self\":";
  write_bool buf r.self_pair;
  add buf ",\"common_loops\":";
  write_int buf r.ncommon;
  add buf ",\"outcome\":";
  write_outcome buf r;
  Buffer.add_char buf '}'

let pairs prs = Raw (render (fun buf -> write_list buf write_pair prs))

let stats (s : Analyzer.stats) =
  Obj
    ([
      ("pairs", Int s.pairs);
      ("constant_cases", Int s.constant_cases);
      ("gcd_independent", Int s.gcd_independent);
      ("assumed_dependent", Int s.assumed);
      ( "plain_tests",
        Obj
          [
            ("svpc", Int s.plain_by_test.(0));
            ("acyclic", Int s.plain_by_test.(1));
            ("loop_residue", Int s.plain_by_test.(2));
            ("fourier", Int s.plain_by_test.(3));
          ] );
      ( "direction_tests",
        Obj
          [
            ("svpc", Int s.dir_counts.Direction.by_test.(0));
            ("acyclic", Int s.dir_counts.Direction.by_test.(1));
            ("loop_residue", Int s.dir_counts.Direction.by_test.(2));
            ("fourier", Int s.dir_counts.Direction.by_test.(3));
          ] );
      ( "memo",
        Obj
          [
            ("gcd_lookups", Int s.memo_lookups_nobounds);
            ("gcd_hits", Int s.memo_hits_nobounds);
            ("gcd_unique", Int s.memo_unique_nobounds);
            ("full_lookups", Int s.memo_lookups_full);
            ("full_hits", Int s.memo_hits_full);
            ("full_unique", Int s.memo_unique_full);
          ] );
      ("independent_pairs", Int s.independent_pairs);
      ("dependent_pairs", Int s.dependent_pairs);
    ]
    (* only when something degraded: keeps the output stable for the
       (overwhelmingly common) exact runs *)
    @
    if s.degraded_pairs = 0 then []
    else [ ("degraded_pairs", Int s.degraded_pairs) ])

let report (r : Analyzer.report) =
  Obj [ ("pairs", pairs r.pair_reports); ("stats", stats r.stats) ]

let metrics (snap : Dda_obs.Metrics.snapshot) =
  Obj
    [
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) snap.counters));
      ( "histograms",
        Obj
          (List.map
             (fun (n, (h : Dda_obs.Metrics.hist_snapshot)) ->
                ( n,
                  Obj
                    [
                      ("count", Int h.count);
                      ("sum", Int h.sum);
                      ( "buckets",
                        List
                          (List.map
                             (fun (i, c) ->
                                List [ Int (Dda_obs.Metrics.bucket_lo i); Int c ])
                             h.buckets) );
                    ] ))
             snap.histograms) );
    ]
