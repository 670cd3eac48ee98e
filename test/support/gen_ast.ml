(* QCheck generators for mini-Fortran programs.

   Two flavors:
   - [arb_program]: syntactically diverse programs (division, negation,
     conditionals, scalar temporaries) for parser/printer round-trip
     tests;
   - [arb_affine_nest]: small, well-formed affine loop nests with small
     constant bounds, suitable for the brute-force trace oracle (the
     iteration space stays enumerable). *)

open Dda_lang
open QCheck

let gen_small_int lo hi = Gen.int_range lo hi

(* ------------------------------------------------------------------ *)
(* Syntactic programs for round-trip testing                           *)
(* ------------------------------------------------------------------ *)

let scalar_names = [| "n"; "m"; "t"; "u"; "acc" |]
let array_names = [| "a"; "b"; "c"; "work" |]
let loop_names = [| "i"; "j"; "k"; "l" |]

let gen_name pool = Gen.map (fun i -> pool.(i mod Array.length pool)) Gen.small_nat

let rec gen_expr depth : Ast.expr Gen.t =
  let open Gen in
  if depth <= 0 then
    oneof
      [
        map Ast.int_ (gen_small_int (-20) 20);
        map Ast.var (gen_name scalar_names);
        map Ast.var (gen_name loop_names);
      ]
  else
    frequency
      [
        (2, map Ast.int_ (gen_small_int (-20) 20));
        (2, map Ast.var (gen_name scalar_names));
        (2, map Ast.var (gen_name loop_names));
        ( 3,
          map3
            (fun op a b -> Ast.bin op a b)
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ])
            (gen_expr (depth - 1))
            (gen_expr (depth - 1)) );
        (1, map Ast.neg (gen_expr (depth - 1)));
        ( 2,
          map2
            (fun name subs -> Ast.aref name subs)
            (gen_name array_names)
            (list_size (int_range 1 3) (gen_expr (depth - 1))) );
      ]

(* Expressions that mostly stay affine: sums, differences, negations,
   products and quotients by small literals over loop and scalar
   names, with the odd product or quotient of two subexpressions, so
   that the conversion's exact-division and constant-product rules are
   exercised, not only its [None]s. *)
let rec gen_linear_expr depth : Ast.expr Gen.t =
  let open Gen in
  let leaf =
    oneof
      [
        map Ast.int_ (gen_small_int (-6) 6);
        map Ast.var (gen_name scalar_names);
        map Ast.var (gen_name loop_names);
      ]
  in
  if depth <= 0 then leaf
  else
    let sub = gen_linear_expr (depth - 1) in
    let lit = gen_small_int (-4) 4 in
    frequency
      [
        (2, leaf);
        (3, map2 (Ast.bin Ast.Add) sub sub);
        (2, map2 (Ast.bin Ast.Sub) sub sub);
        (2, map2 (fun k e -> Ast.bin Ast.Mul (Ast.int_ k) e) lit sub);
        (1, map2 (fun e k -> Ast.bin Ast.Mul e (Ast.int_ k)) sub lit);
        (2, map2 (fun e k -> Ast.bin Ast.Div e (Ast.int_ k)) sub lit);
        (1, map2 (Ast.bin Ast.Mul) sub sub);
        (1, map2 (Ast.bin Ast.Div) sub sub);
        (1, map Ast.neg sub);
      ]

let gen_cond depth : Ast.cond Gen.t =
  let open Gen in
  map3
    (fun rel lhs rhs -> { Ast.rel; lhs; rhs })
    (oneofl [ Ast.Req; Ast.Rne; Ast.Rlt; Ast.Rle; Ast.Rgt; Ast.Rge ])
    (gen_expr depth) (gen_expr depth)

let rec gen_stmt depth : Ast.stmt Gen.t =
  let open Gen in
  let assign_scalar =
    map2 (fun v e -> Ast.assign (Ast.Lvar v) e) (gen_name scalar_names) (gen_expr 2)
  in
  let assign_array =
    map3
      (fun name subs e -> Ast.assign (Ast.Larr (name, subs)) e)
      (gen_name array_names)
      (list_size (int_range 1 3) (gen_expr 1))
      (gen_expr 2)
  in
  let read_stmt = map Ast.read (gen_name scalar_names) in
  if depth <= 0 then oneof [ assign_scalar; assign_array; read_stmt ]
  else
    frequency
      [
        (3, assign_scalar);
        (3, assign_array);
        (1, read_stmt);
        ( 2,
          (* for loop; always non-zero constant step when present *)
          gen_name loop_names >>= fun var ->
          gen_expr 1 >>= fun lo ->
          gen_expr 1 >>= fun hi ->
          oneofl [ None; Some 1; Some 2; Some (-1) ] >>= fun step ->
          list_size (int_range 1 3) (gen_stmt (depth - 1)) >>= fun body ->
          return (Ast.for_ ?step:(Option.map Ast.int_ step) var lo hi body) );
        ( 1,
          gen_cond 1 >>= fun cond ->
          list_size (int_range 1 2) (gen_stmt (depth - 1)) >>= fun then_ ->
          list_size (int_range 0 2) (gen_stmt (depth - 1)) >>= fun else_ ->
          return (Ast.if_ cond then_ else_) );
      ]

let gen_program : Ast.program Gen.t =
  Gen.list_size (Gen.int_range 1 5) (gen_stmt 2)

let arb_program = make ~print:Pretty.program_to_string gen_program

(* ------------------------------------------------------------------ *)
(* Affine loop nests for oracle-based testing                          *)
(* ------------------------------------------------------------------ *)

(* An affine subscript c0 + sum ck * ik over in-scope loop variables. *)
let gen_affine_subscript loop_vars : Ast.expr Gen.t =
  let open Gen in
  let var_term v =
    gen_small_int (-2) 2 >>= fun c ->
    return
      (if c = 0 then None
       else if c = 1 then Some (Ast.var v)
       else Some (Ast.bin Ast.Mul (Ast.int_ c) (Ast.var v)))
  in
  let rec combine acc = function
    | [] -> return acc
    | v :: rest ->
      var_term v >>= fun t ->
      let acc = match t with None -> acc | Some t -> Ast.bin Ast.Add acc t in
      combine acc rest
  in
  gen_small_int (-3) 6 >>= fun c0 -> combine (Ast.int_ c0) loop_vars

let gen_affine_ref loop_vars rank : (string * Ast.expr list) Gen.t =
  let open Gen in
  gen_name array_names >>= fun name ->
  list_repeat rank (gen_affine_subscript loop_vars) >>= fun subs ->
  return (name, subs)

(* A nest of 1-3 loops with small constant bounds; the body contains
   1-3 array assignments whose rhs reads arrays with affine
   subscripts. All arrays in one nest share the generated rank so that
   reference pairs are comparable. *)
let gen_affine_nest : Ast.program Gen.t =
  let open Gen in
  int_range 1 3 >>= fun depth ->
  int_range 1 2 >>= fun rank ->
  let vars = Array.to_list (Array.sub loop_names 0 depth) in
  let gen_assign =
    gen_affine_ref vars rank >>= fun (wname, wsubs) ->
    gen_affine_ref vars rank >>= fun (rname, rsubs) ->
    gen_small_int 0 9 >>= fun k ->
    return
      (Ast.assign (Ast.Larr (wname, wsubs))
         (Ast.bin Ast.Add (Ast.aref rname rsubs) (Ast.int_ k)))
  in
  list_size (int_range 1 3) gen_assign >>= fun body ->
  (* Wrap body in the loops, innermost last. Bounds: lo in 0..2, extent
     2..5 so traces stay small. *)
  let rec wrap vars body =
    match vars with
    | [] -> return body
    | v :: rest ->
      gen_small_int 0 2 >>= fun lo ->
      gen_small_int 2 5 >>= fun extent ->
      wrap rest [ Ast.for_ v (Ast.int_ lo) (Ast.int_ (lo + extent)) body ]
  in
  wrap (List.rev vars) body >>= fun prog ->
  (* Round-trip through the printer so every node carries a genuine
     source location — reference sites are identified by location. *)
  return (Parser.parse_program (Pretty.program_to_string prog))

let arb_affine_nest = make ~print:Pretty.program_to_string gen_affine_nest

(* Like [gen_affine_nest] but with a symbolic unknown [n] (introduced by
   read) added to some subscripts: bounds stay constant so the trace
   oracle can still run, per concrete input. *)
let gen_symbolic_nest : Ast.program Gen.t =
  let open Gen in
  gen_affine_nest >>= fun prog ->
  (* Add "+ k*n" to a random subset of subscripts. *)
  int_range 1 6 >>= fun salt ->
  let count = ref 0 in
  let rec sprinkle_expr (e : Ast.expr) =
    match e.desc with
    | Ast.Int _ | Ast.Var _ -> e
    | Ast.Neg a -> { e with desc = Ast.Neg (sprinkle_expr a) }
    | Ast.Bin (op, a, b) -> { e with desc = Ast.Bin (op, sprinkle_expr a, sprinkle_expr b) }
    | Ast.Aref (name, subs) ->
      let subs =
        List.map
          (fun sub ->
             incr count;
             if (!count + salt) mod 3 = 0 then
               let k = 1 + ((!count + salt) mod 2) in
               Ast.bin Ast.Add sub (Ast.bin Ast.Mul (Ast.int_ k) (Ast.var "n"))
             else sub)
          subs
      in
      { e with desc = Ast.Aref (name, subs) }
  in
  let rec sprinkle_stmt (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Assign (Ast.Larr (name, subs), e) ->
      { s with sdesc = Ast.Assign (Ast.Larr (name, List.map sprinkle_expr subs), sprinkle_expr e) }
    | Ast.Assign (lv, e) -> { s with sdesc = Ast.Assign (lv, sprinkle_expr e) }
    | Ast.For f -> { s with sdesc = Ast.For { f with body = List.map sprinkle_stmt f.body } }
    | Ast.If (c, t, el) ->
      { s with sdesc = Ast.If (c, List.map sprinkle_stmt t, List.map sprinkle_stmt el) }
    | Ast.Read _ -> s
  in
  let prog = Ast.read "n" :: List.map sprinkle_stmt prog in
  (* Round-trip for genuine locations. *)
  return (Parser.parse_program (Pretty.program_to_string prog))

let arb_symbolic_nest = make ~print:Pretty.program_to_string gen_symbolic_nest
