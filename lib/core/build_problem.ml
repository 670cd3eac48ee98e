open Dda_numeric

(* Index a site's loop variables: level k of site 1 occupies slot k,
   level k of site 2 occupies slot n1 + k; symbols come last.

   The loop scans below take explicit parameters and walk the sites'
   own loop lists, so they compile to closure-free loops and copy
   nothing: [key] runs once per site pair, and [build] on every memo
   miss — every spare block here is multiplied by O(sites^2). *)

(* Is [v] one of the first [k] loop variables? *)
let rec mem_loops (loops : Affine.loop_ctx list) k v =
  k > 0
  &&
  match loops with
  | [] -> false
  | c :: rest -> String.equal c.Affine.lvar v || mem_loops rest (k - 1) v

let rec loop_slot (loops : Affine.loop_ctx list) slot v =
  match loops with
  | [] -> -1
  | c :: rest -> if String.equal c.Affine.lvar v then slot else loop_slot rest (slot + 1) v

(* Per-domain workspace. The three [Symexpr.iter] callbacks are built
   once per domain and thread their state through these mutable
   fields: a fresh closure per iter call (the obvious style) costs
   tens of megabytes over a batch. *)
type ctx = {
  mutable c_loops : Affine.loop_ctx list;  (* site whose vars resolve *)
  mutable c_limit : int;  (* note: how many leading loop vars in scope *)
  mutable c_base : int;  (* accum: slot of the site's level-0 variable *)
  mutable c_syms : string array;  (* the first [c_nsym], in discovery order *)
  mutable c_nsym : int;
  mutable c_sym_base : int;
  mutable c_coeffs : Zint.t array;
  mutable c_key : int array;  (* direct key: the row being written *)
  mutable c_off : int;  (* starts at [c_key.(c_off)] *)
  mutable c_small : bool;  (* every value read so far was a small Zint *)
  mutable c_sign : int;
  mutable c_note : string -> Zint.t -> unit;
  mutable c_acc : string -> Zint.t -> unit;
  mutable c_acc_key : string -> Zint.t -> unit;
}

let rec mem_syms ctx v i =
  i < ctx.c_nsym && (String.equal ctx.c_syms.(i) v || mem_syms ctx v (i + 1))

(* Collect symbols: every Symexpr variable that is not an in-scope
   loop variable of the current site. *)
let note_sym ctx v (_ : Zint.t) =
  if not (mem_loops ctx.c_loops ctx.c_limit v || mem_syms ctx v 0) then begin
    if ctx.c_nsym = Array.length ctx.c_syms then begin
      let grown = Array.make (max 8 (2 * ctx.c_nsym)) "" in
      Array.blit ctx.c_syms 0 grown 0 ctx.c_nsym;
      ctx.c_syms <- grown
    end;
    ctx.c_syms.(ctx.c_nsym) <- v;
    ctx.c_nsym <- ctx.c_nsym + 1
  end

let rec sym_slot ctx v i =
  if i >= ctx.c_nsym then -1
  else if String.equal ctx.c_syms.(i) v then ctx.c_sym_base + i
  else sym_slot ctx v (i + 1)

(* The slot for [v]. Loop variables shadow symbols of the same name
   (cannot happen after versioning, but keep the lookup order sane). *)
let slot ctx v =
  let i =
    match loop_slot ctx.c_loops ctx.c_base v with
    | -1 -> sym_slot ctx v 0
    | i -> i
  in
  assert (i >= 0);
  i

(* Accumulate [c_sign * coeff] into the slot for [v]. *)
let accum_term ctx v c =
  let i = slot ctx v in
  ctx.c_coeffs.(i) <-
    (if ctx.c_sign > 0 then Zint.add ctx.c_coeffs.(i) c
     else Zint.sub ctx.c_coeffs.(i) c)

(* The same into the direct key's row, read as a native int. Only a
   small Zint ([|c| <= max_int / 2]) is read: a slot sums at most two
   of them (a symbol from both subscripts, or a bound term and the
   subject's 1), so no sum wraps and no negation meets [min_int]. *)
let small ctx c =
  if Zint.is_small c then Zint.to_int_exn c
  else begin
    ctx.c_small <- false;
    0
  end

let accum_key_term ctx v c =
  let i = ctx.c_off + slot ctx v in
  ctx.c_key.(i) <- ctx.c_key.(i) + (ctx.c_sign * small ctx c)

let fresh_ctx () =
  let ctx =
    {
      c_loops = [];
      c_limit = 0;
      c_base = 0;
      c_syms = [||];
      c_nsym = 0;
      c_sym_base = 0;
      c_coeffs = [||];
      c_key = [||];
      c_off = 0;
      c_small = true;
      c_sign = 1;
      c_note = (fun _ _ -> ());
      c_acc = (fun _ _ -> ());
      c_acc_key = (fun _ _ -> ());
    }
  in
  ctx.c_note <- note_sym ctx;
  ctx.c_acc <- accum_term ctx;
  ctx.c_acc_key <- accum_key_term ctx;
  ctx

let ctx_key = Domain.DLS.new_key fresh_ctx

let note_one ctx loops limit e =
  ctx.c_loops <- loops;
  ctx.c_limit <- limit;
  Symexpr.iter ctx.c_note e

let rec note_subs ctx loops limit = function
  | [] -> ()
  | Some e :: rest ->
    note_one ctx loops limit e;
    note_subs ctx loops limit rest
  | None :: rest -> note_subs ctx loops limit rest

(* The level-[k] bounds may only refer to the [k] outer loop
   variables, so the membership scan is bounded per call site. *)
let rec note_bounds ctx loops k = function
  | [] -> ()
  | (c : Affine.loop_ctx) :: rest ->
    (match c.lb with Some e -> note_one ctx loops k e | None -> ());
    (match c.ub with Some e -> note_one ctx loops k e | None -> ());
    note_bounds ctx loops (k + 1) rest

(* Both sites' symbols, from their subscripts and then their bounds,
   numbered in discovery order into [ctx.c_syms]. *)
let note_symbols ctx ~n1 ~n2 (s1 : Affine.site) (s2 : Affine.site) =
  ctx.c_nsym <- 0;
  note_subs ctx s1.loops n1 s1.subscripts;
  note_subs ctx s2.loops n2 s2.subscripts;
  note_bounds ctx s1.loops 0 s1.loops;
  note_bounds ctx s2.loops 0 s2.loops;
  ctx.c_sym_base <- n1 + n2

let buildable (s1 : Affine.site) (s2 : Affine.site) =
  Affine.analyzable s1 && Affine.analyzable s2
  && List.length s1.subscripts = List.length s2.subscripts

(* Accumulate [sign * e] into [coeffs] (one pass over the coeff map,
   no variable-list detour); returns the signed constant. *)
let accum ctx loops base sign coeffs e =
  ctx.c_loops <- loops;
  ctx.c_base <- base;
  ctx.c_sign <- sign;
  ctx.c_coeffs <- coeffs;
  Symexpr.iter ctx.c_acc e;
  if sign > 0 then Symexpr.const_part e else Zint.neg (Symexpr.const_part e)

(* Equalities: sub1_d(x) - sub2_d(x') = 0, built in a single array per
   dimension. Subscript lists were length-checked by [build]. *)
let rec build_eqs ctx loops1 loops2 n1 nvars subs1 subs2 =
  match (subs1, subs2) with
  | [], _ | _, [] -> []
  | e1 :: r1, e2 :: r2 ->
    let e1 = Option.get e1 and e2 = Option.get e2 in
    let coeffs = Array.make nvars Zint.zero in
    let k1 = accum ctx loops1 0 1 coeffs e1 in
    let nk2 = accum ctx loops2 n1 (-1) coeffs e2 in
    { Consys.coeffs; rhs = Zint.sub (Zint.neg nk2) k1 }
    :: build_eqs ctx loops1 loops2 n1 nvars r1 r2

(* The level-[k] bound [e] of a site whose level 0 is slot [base]:
   [sign = 1] for a lower bound ([lb - var <= 0]), [-1] for an upper
   one ([var - ub <= 0]). *)
let bound_row ctx loops base nvars k sign e =
  let coeffs = Array.make nvars Zint.zero in
  let const = accum ctx loops base sign coeffs e in
  let subject = base + k in
  coeffs.(subject) <- Zint.sub coeffs.(subject) (Zint.of_int sign);
  { Problem.row = { Consys.coeffs; rhs = Zint.neg const }; subject }

(* Bounds rows for each loop level, in the order the rest of the
   system depends on: level ascending, lower before upper. *)
let rec bounds_for ctx loops base nvars k = function
  | [] -> []
  | (c : Affine.loop_ctx) :: rest ->
    let ub_and_rest =
      let rest = bounds_for ctx loops base nvars (k + 1) rest in
      match c.ub with
      | Some ub -> bound_row ctx loops base nvars k (-1) ub :: rest
      | None -> rest
    in
    (match c.lb with
     | Some lb -> bound_row ctx loops base nvars k 1 lb :: ub_and_rest
     | None -> ub_and_rest)

let build (s1 : Affine.site) (s2 : Affine.site) =
  if not (buildable s1 s2) then None
  else begin
    let n1 = List.length s1.loops and n2 = List.length s2.loops in
    let ncommon = Affine.common_loops s1 s2 in
    let ctx = Domain.DLS.get ctx_key in
    note_symbols ctx ~n1 ~n2 s1 s2;
    let nsym = ctx.c_nsym in
    let nvars = n1 + n2 + nsym in
    let names = Array.make nvars "" in
    List.iteri (fun i (c : Affine.loop_ctx) -> names.(i) <- c.lvar) s1.loops;
    List.iteri (fun i (c : Affine.loop_ctx) -> names.(n1 + i) <- c.lvar ^ "'") s2.loops;
    Array.blit ctx.c_syms 0 names (n1 + n2) nsym;
    let eqs = build_eqs ctx s1.loops s2.loops n1 nvars s1.subscripts s2.subscripts in
    let ineqs = bounds_for ctx s1.loops 0 nvars 0 s1.loops in
    let ineqs = ineqs @ bounds_for ctx s2.loops n1 nvars 0 s2.loops in
    Some (Problem.make ~names ~n1 ~n2 ~nsym ~ncommon ~eqs ~ineqs)
  end

(* The direct key: {!Problem.to_key}'s key, laid out by {!Problem}'s
   tag, header and count writers, its rows written as [build] builds them
   (the equality rows sign-normalized) straight into the scratch
   buffer. The replay key is the same layout untagged, with the
   equality rows left as built and a [subject] slot before each bound
   row. *)

(* Add [sign * e]'s coefficients into the key row at [off]; returns
   [sign * e]'s constant. *)
let accum_key ctx loops base sign off e =
  ctx.c_loops <- loops;
  ctx.c_base <- base;
  ctx.c_sign <- sign;
  ctx.c_off <- off;
  Symexpr.iter ctx.c_acc_key e;
  sign * small ctx (Symexpr.const_part e)

let rec key_eqs ctx ~replay loops1 loops2 n1 width off subs1 subs2 =
  match (subs1, subs2) with
  | [], _ | _, [] -> off
  | e1 :: r1, e2 :: r2 ->
    let a = ctx.c_key in
    Array.fill a off width 0;
    let k1 = accum_key ctx loops1 0 1 off (Option.get e1) in
    let nk2 = accum_key ctx loops2 n1 (-1) off (Option.get e2) in
    a.(off + width - 1) <- -nk2 - k1;
    if not replay then Problem.normalize_eq a off (width - 1);
    key_eqs ctx ~replay loops1 loops2 n1 width (off + width) r1 r2

(* [bound_row], written at [off] (after its subject in a replay key);
   returns the offset past it. *)
let key_bound ctx ~replay loops base width k sign off e =
  let a = ctx.c_key in
  let off =
    if replay then begin
      a.(off) <- base + k;
      off + 1
    end
    else off
  in
  Array.fill a off width 0;
  let const = accum_key ctx loops base sign off e in
  a.(off + base + k) <- a.(off + base + k) - sign;
  a.(off + width - 1) <- -const;
  off + width

let rec key_bounds ctx ~replay loops base width k off = function
  | [] -> off
  | (c : Affine.loop_ctx) :: rest ->
    let off =
      match c.lb with
      | Some lb -> key_bound ctx ~replay loops base width k 1 off lb
      | None -> off
    in
    let off =
      match c.ub with
      | Some ub -> key_bound ctx ~replay loops base width k (-1) off ub
      | None -> off
    in
    key_bounds ctx ~replay loops base width (k + 1) off rest

let rec count_bounds n = function
  | [] -> n
  | (c : Affine.loop_ctx) :: rest ->
    let n = match c.lb with Some _ -> n + 1 | None -> n in
    count_bounds (match c.ub with Some _ -> n + 1 | None -> n) rest

let no_key = [||]

let write_key ~replay ~tag (s1 : Affine.site) (s2 : Affine.site) =
  if not (buildable s1 s2) then no_key
  else begin
    let n1 = List.length s1.loops and n2 = List.length s2.loops in
    let ctx = Domain.DLS.get ctx_key in
    note_symbols ctx ~n1 ~n2 s1 s2;
    let nsym = ctx.c_nsym in
    let nvars = n1 + n2 + nsym in
    let neqs = List.length s1.subscripts in
    let nineqs = count_bounds (count_bounds 0 s1.loops) s2.loops in
    let len = Problem.key_length ~tagged:(not replay) ~nvars ~neqs ~nineqs in
    let a = Problem.scratch (if replay then len + nineqs else len) in
    ctx.c_key <- a;
    ctx.c_small <- true;
    let off =
      Problem.write_key_header ~nvars ~n1 ~n2 ~nsym ~ncommon:(Affine.common_loops s1 s2)
        ~neqs a
        (if replay then 0 else Problem.write_key_tag a tag)
    in
    let width = nvars + 1 in
    let off = key_eqs ctx ~replay s1.loops s2.loops n1 width off s1.subscripts s2.subscripts in
    let off =
      key_bounds ctx ~replay s1.loops 0 width 0 (Problem.write_key_nineqs a off nineqs) s1.loops
    in
    ignore (key_bounds ctx ~replay s2.loops n1 width 0 off s2.loops);
    if ctx.c_small then a else no_key
  end

let key ~tag s1 s2 = write_key ~replay:false ~tag s1 s2
let replay_key s1 s2 = write_key ~replay:true ~tag:0 s1 s2
