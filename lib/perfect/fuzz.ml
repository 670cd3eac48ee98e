(* A seeded random affine-program generator: where Patterns emits
   hand-shaped nests aimed at one cascade stage each, the fuzzer walks
   a small grammar and produces arbitrary (but always parseable and
   semantically valid) combinations — the corpus source for the
   streaming batch driver and the crash/resume chaos tests. *)

type profile = Mixed | Small

let all_profiles = [ Mixed; Small ]
let profile_name = function Mixed -> "mixed" | Small -> "small"

(* Derive item [index]'s PRNG seed from the corpus seed with an
   avalanche mix, so consecutive indices get unrelated streams. The
   constants are arbitrary odd numbers; only determinism matters. *)
let item_seed seed index =
  let x = ref ((seed * 0x1000193) lxor (index * 0x5DEECE6D)) in
  for _ = 1 to 3 do
    x := !x lxor (!x lsr 31);
    x := (!x * 0x27D4EB2D) land max_int
  done;
  if !x = 0 then 0x9E3779B9 else !x

type limits = {
  max_depth : int;
  max_bound : int;  (* constant loop bounds drawn from [2, max_bound] *)
  max_coef : int;
  max_off : int;
  symbolic : bool;  (* allow "n" bounds and offsets (needs read(n)) *)
  max_nests : int;
  use_patterns : bool;  (* mix in Patterns nests alongside grammar walks *)
}

(* Small keeps iteration spaces tiny (trip counts <= 6, depth <= 2, no
   symbolic terms) so the brute-force oracle in the verification layer
   can enumerate them exhaustively. *)
let limits_of = function
  | Mixed ->
    {
      max_depth = 3;
      max_bound = 40;
      max_coef = 3;
      max_off = 4;
      symbolic = true;
      max_nests = 2;
      use_patterns = true;
    }
  | Small ->
    {
      max_depth = 2;
      max_bound = 6;
      max_coef = 2;
      max_off = 3;
      symbolic = false;
      max_nests = 2;
      use_patterns = false;
    }

let arrays = [ "a"; "b"; "c"; "u" ]
let arrays2 = [ "aa"; "bb" ]
let var_names = [| "i"; "j"; "k" |]

(* An affine expression over the in-scope loop variables:
   [c1*v1 + c2*v2 + d], any subset of terms, signs included. Falls
   back to a bare constant when no variable is in scope. *)
let affine rng lim ~uses_n vars =
  let buf = Buffer.create 16 in
  let first = ref true in
  let add neg s =
    if !first then begin
      if neg then Buffer.add_char buf '-';
      Buffer.add_string buf s;
      first := false
    end
    else begin
      Buffer.add_string buf (if neg then " - " else " + ");
      Buffer.add_string buf s
    end
  in
  let nvars = List.length vars in
  let nterms = if nvars = 0 then 0 else 1 + Prng.int rng (min 2 nvars) in
  let chosen =
    (* distinct variables, innermost-biased by a rotated start *)
    let arr = Array.of_list vars in
    let start = Prng.int rng nvars in
    List.init nterms (fun t -> arr.((start + t) mod nvars))
  in
  List.iter
    (fun v ->
      let c = 1 + Prng.int rng lim.max_coef in
      let term = if c = 1 then v else Printf.sprintf "%d*%s" c v in
      add (Prng.bool rng) term)
    (if nterms = 0 then [] else chosen);
  let off = Prng.int rng (lim.max_off + 1) in
  if off <> 0 || !first then add (Prng.bool rng) (string_of_int off);
  if lim.symbolic && Prng.int rng 6 = 0 then begin
    uses_n := true;
    add false "n"
  end;
  Buffer.contents buf

let reference rng lim ~uses_n vars =
  if Prng.int rng 5 = 0 then
    Printf.sprintf "%s[%s][%s]"
      (Prng.choose rng arrays2)
      (affine rng lim ~uses_n vars)
      (affine rng lim ~uses_n vars)
  else
    Printf.sprintf "%s[%s]" (Prng.choose rng arrays)
      (affine rng lim ~uses_n vars)

let statement rng lim ~uses_n ~indent vars =
  let lhs = reference rng lim ~uses_n vars in
  let rhs =
    match Prng.int rng 4 with
    | 0 -> string_of_int (Prng.range rng 0 9)
    | 1 -> Printf.sprintf "%s + 1" (reference rng lim ~uses_n vars)
    | 2 ->
      Printf.sprintf "%s + %s"
        (reference rng lim ~uses_n vars)
        (reference rng lim ~uses_n vars)
    | _ -> Printf.sprintf "2 * %s" (reference rng lim ~uses_n vars)
  in
  Printf.sprintf "%s%s = %s\n" indent lhs rhs

let rec nest rng lim ~uses_n ~depth ~indent vars =
  let level = List.length vars in
  let v = var_names.(level) in
  let lo = string_of_int (Prng.range rng 1 2) in
  let hi =
    if lim.symbolic && Prng.int rng 4 = 0 then begin
      uses_n := true;
      "n"
    end
    else string_of_int (Prng.range rng 2 lim.max_bound)
  in
  let step = if Prng.int rng 5 = 0 then " step 2" else "" in
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "%sfor %s = %s to %s%s do\n" indent v lo hi step);
  let inner_indent = indent ^ "  " in
  let vars = vars @ [ v ] in
  let nstmts = 1 + Prng.int rng 2 in
  for _ = 1 to nstmts do
    Buffer.add_string buf (statement rng lim ~uses_n ~indent:inner_indent vars)
  done;
  if depth > 1 && Prng.int rng 2 = 0 then
    Buffer.add_string buf
      (nest rng lim ~uses_n ~depth:(depth - 1) ~indent:inner_indent vars);
  Buffer.add_string buf (Printf.sprintf "%send\n" indent);
  Buffer.contents buf

let grammar_nest rng lim =
  let uses_n = ref false in
  let depth = 1 + Prng.int rng lim.max_depth in
  let body = nest rng lim ~uses_n ~depth ~indent:"" [] in
  if !uses_n then "read(n)\n" ^ body else body

let program profile ~seed ~index =
  let lim = limits_of profile in
  let rng = Prng.create (item_seed seed index) in
  let nnests = 1 + Prng.int rng lim.max_nests in
  let nests =
    List.init nnests (fun _ ->
        if lim.use_patterns && Prng.bool rng then
          Patterns.generate rng (Prng.choose rng Patterns.all_categories)
        else grammar_nest rng lim)
  in
  Printf.sprintf "# fuzz profile=%s seed=%d index=%d\n%s"
    (profile_name profile) seed index
    (String.concat "\n" nests)
