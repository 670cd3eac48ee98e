open Dda_lang

(* The pipeline re-runs every pass until a fixpoint, so on most rounds
   most of the tree is already in normal form. Every rewriter here is
   identity-preserving: it returns its argument physically unchanged
   when no rule fires, and on an argument already in normal form it
   allocates nothing: no option, no tuple, no closure per node
   ([map_sharing_with] takes the environment of a list rewrite as an
   argument rather than a partial application). So a converged round
   allocates nothing, and unchanged subtrees stay shared between
   rounds. *)

let rec map_sharing f l =
  match l with
  | [] -> []
  | x :: tl ->
    let x' = f x in
    let tl' = map_sharing f tl in
    if x' == x && tl' == tl then l else x' :: tl'

(* [map_sharing (f x) l], without allocating the partial application. *)
let rec map_sharing_with f x l =
  match l with
  | [] -> []
  | y :: tl ->
    let y' = f x y in
    let tl' = map_sharing_with f x tl in
    if y' == y && tl' == tl then l else y' :: tl'

(* Top-level (not a per-call closure): the rewriters below run on every
   node of every program once per pass per round, so even a spare
   closure allocation per visited node shows up in whole-batch
   profiles. *)
let remake (e : Ast.expr) desc = { e with Ast.desc = desc }
let remake_stmt (s : Ast.stmt) sdesc = { s with Ast.sdesc = sdesc }

(* Native arithmetic that refuses to wrap: a fold or a linear rewrite
   past the native int range leaves the expression as written, for the
   exact (Zint) extraction downstream. [min_int] counts as out of range
   too, so every folded constant and collected coefficient can be
   negated. *)
let add_ok = Dda_numeric.Checked.add_ok
let sub_ok = Dda_numeric.Checked.sub_ok
let mul_ok = Dda_numeric.Checked.mul_ok

exception Overflow

let add_exn x y = if add_ok x y then x + y else raise Overflow
let mul_exn x y = if mul_ok x y then x * y else raise Overflow

let rec const_fold (e : Ast.expr) : Ast.expr =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> e
  | Ast.Neg a -> (
      let a' = const_fold a in
      match a'.desc with
      | Ast.Int n when n <> min_int -> remake e (Ast.Int (-n))
      | Ast.Neg b -> b
      | _ -> if a' == a then e else remake e (Ast.Neg a'))
  | Ast.Aref (name, subs) ->
    let subs' = map_sharing const_fold subs in
    if subs' == subs then e else remake e (Ast.Aref (name, subs'))
  | Ast.Bin (op, a, b) -> (
      let a = const_fold a and b = const_fold b in
      match (op, a.desc, b.desc) with
      | Ast.Add, Ast.Int x, Ast.Int y when add_ok x y -> remake e (Ast.Int (x + y))
      | Ast.Sub, Ast.Int x, Ast.Int y when sub_ok x y -> remake e (Ast.Int (x - y))
      | Ast.Mul, Ast.Int x, Ast.Int y when mul_ok x y -> remake e (Ast.Int (x * y))
      | Ast.Div, Ast.Int x, Ast.Int y when y <> 0 && not (x = min_int && y = -1) ->
        remake e (Ast.Int (x / y))
      | Ast.Add, Ast.Int 0, _ -> b
      | Ast.Add, _, Ast.Int 0 -> a
      | Ast.Sub, _, Ast.Int 0 -> a
      | Ast.Mul, Ast.Int 1, _ -> b
      | Ast.Mul, _, Ast.Int 1 -> a
      | Ast.Mul, Ast.Int 0, _ when no_arrays b -> remake e (Ast.Int 0)
      | Ast.Mul, _, Ast.Int 0 when no_arrays a -> remake e (Ast.Int 0)
      | Ast.Div, _, Ast.Int 1 -> a
      | _ -> (
          match e.desc with
          | Ast.Bin (_, a0, b0) when a == a0 && b == b0 -> e
          | _ -> remake e (Ast.Bin (op, a, b))))

(* [e * 0 = 0] is only valid when [e] has no side effect on the trace;
   array reads are observable accesses, so keep them. *)
and no_arrays (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> true
  | Ast.Neg a -> no_arrays a
  | Ast.Bin (_, a, b) -> no_arrays a && no_arrays b
  | Ast.Aref _ -> false

let const_value e =
  match (const_fold e).desc with Ast.Int n -> Some n | _ -> None

(* Workspace for [linearize]: the collected terms are staged in
   growable parallel arrays (coefficient, atom, purity) owned by the
   calling domain and reused across calls, so canonicalizing an
   expression that is already in normal form allocates nothing. Nested
   [linearize] calls (the insides of opaque atoms) stack their region
   on top of the caller's and pop it on return. *)
type lin_ws = {
  mutable t_coeff : int array;
  mutable t_atom : Ast.expr array;
  mutable t_pure : bool array;
  mutable t_len : int;
}

let lin_ws_key =
  Domain.DLS.new_key (fun () ->
      { t_coeff = Array.make 16 0;
        t_atom = Array.make 16 (Ast.int_ 0);
        t_pure = Array.make 16 false;
        t_len = 0 })

let ws_grow ws =
  let n = Array.length ws.t_coeff in
  let coeff = Array.make (2 * n) 0
  and atom = Array.make (2 * n) (Ast.int_ 0)
  and pure = Array.make (2 * n) false in
  Array.blit ws.t_coeff 0 coeff 0 n;
  Array.blit ws.t_atom 0 atom 0 n;
  Array.blit ws.t_pure 0 pure 0 n;
  ws.t_coeff <- coeff;
  ws.t_atom <- atom;
  ws.t_pure <- pure

(* Record [coeff * atom]; pure atoms merge (and cancel) with an equal
   atom already collected in this call's region [base..t_len). *)
let rec ws_merge ws i atom coeff =
  i < ws.t_len
  && ((ws.t_pure.(i)
       && Ast.equal_expr ws.t_atom.(i) atom
       && (ws.t_coeff.(i) <- add_exn ws.t_coeff.(i) coeff;
           true))
      || ws_merge ws (i + 1) atom coeff)

let ws_add ws base coeff atom =
  let pure = no_arrays atom in
  if not (pure && ws_merge ws base atom coeff) then begin
    if ws.t_len = Array.length ws.t_coeff then ws_grow ws;
    ws.t_coeff.(ws.t_len) <- coeff;
    ws.t_atom.(ws.t_len) <- atom;
    ws.t_pure.(ws.t_len) <- pure;
    ws.t_len <- ws.t_len + 1
  end

(* A term survives unless it is a pure atom whose coefficient cancelled
   to zero (array-reading atoms stay, even with coefficient zero, to
   keep the access trace intact). *)
let ws_kept ws i = (not ws.t_pure.(i)) || ws.t_coeff.(i) <> 0

let rec ws_prev_kept ws base i =
  let i = i - 1 in
  if i < base then -1 else if ws_kept ws i then i else ws_prev_kept ws base i

let rec ws_next_kept ws i =
  if i >= ws.t_len then -1
  else if ws_kept ws i then i
  else ws_next_kept ws (i + 1)

(* Does [e] already equal the expression the builder below would
   produce from the collected terms and [const]? Pure structural walk,
   no allocation: matching the spine from the outside in (kept terms in
   reverse order) mirrors the builder's left fold exactly. *)
let rec matches_spine ws base i (e : Ast.expr) =
  let c = ws.t_coeff.(i) and a = ws.t_atom.(i) in
  let prev = ws_prev_kept ws base i in
  if prev < 0 then
    (* The head term (first occurrence). *)
    if c = 1 then Ast.equal_expr e a
    else if c = -1 then
      match e.desc with Ast.Neg x -> Ast.equal_expr x a | _ -> false
    else
      match e.desc with
      | Ast.Bin (Ast.Mul, { desc = Ast.Int k; _ }, x) -> k = c && Ast.equal_expr x a
      | _ -> false
  else
    match e.desc with
    | Ast.Bin (Ast.Add, acc, rhs) when c = 1 ->
      Ast.equal_expr rhs a && matches_spine ws base prev acc
    | Ast.Bin (Ast.Sub, acc, rhs) when c = -1 ->
      Ast.equal_expr rhs a && matches_spine ws base prev acc
    | Ast.Bin
        (Ast.Add, acc, { desc = Ast.Bin (Ast.Mul, { desc = Ast.Int k; _ }, rhs); _ })
      when c = 0 || c > 1 ->
      (* [c = 0]: an array atom, kept with coefficient 0 *)
      k = c && Ast.equal_expr rhs a && matches_spine ws base prev acc
    | Ast.Bin
        (Ast.Sub, acc, { desc = Ast.Bin (Ast.Mul, { desc = Ast.Int k; _ }, rhs); _ })
      when c < -1 ->
      k = -c && Ast.equal_expr rhs a && matches_spine ws base prev acc
    | _ -> false

let matches_canonical ws base last_kept const (e : Ast.expr) =
  if const = 0 then matches_spine ws base last_kept e
  else
    match e.desc with
    | Ast.Bin (Ast.Add, acc, { desc = Ast.Int c; _ }) when const > 0 && c = const ->
      matches_spine ws base last_kept acc
    | Ast.Bin (Ast.Sub, acc, { desc = Ast.Int c; _ }) when const < 0 && c = -const ->
      matches_spine ws base last_kept acc
    | _ -> false

(* Linear canonicalization: fold the expression into
   [sum coeff_i * atom_i + const]. Pure scalar atoms merge (and cancel)
   by structural equality; atoms that read arrays stay one-for-one so
   the access trace is untouched. Returns [e] itself when it is already
   in canonical form, or when a constant or coefficient would leave the
   native int range. *)
let rec linearize (e : Ast.expr) : Ast.expr = lin (Domain.DLS.get lin_ws_key) e

and lin ws (e : Ast.expr) =
  let base = ws.t_len in
  match lin_go ws base 1 0 e with
  | exception Overflow ->
    ws.t_len <- base;
    e
  | const -> lin_build ws base const e

(* The canonical form of [e] from the terms collected at [base..] and
   [const]; pops the region. *)
and lin_build ws base const (e : Ast.expr) =
  let result =
    match ws_next_kept ws base with
    | -1 -> ( match e.desc with Ast.Int n when n = const -> e | _ -> Ast.int_ const)
    | h ->
      let last = ws_prev_kept ws base ws.t_len in
      if matches_canonical ws base last const e then e
      else begin
        let c0 = ws.t_coeff.(h) and a0 = ws.t_atom.(h) in
        let head =
          if c0 = 1 then a0
          else if c0 = -1 then Ast.neg a0
          else Ast.bin Ast.Mul (Ast.int_ c0) a0
        in
        let rec fold acc i =
          if i >= ws.t_len then acc
          else if not (ws_kept ws i) then fold acc (i + 1)
          else begin
            let c = ws.t_coeff.(i) and a = ws.t_atom.(i) in
            let acc =
              if c = 1 then Ast.bin Ast.Add acc a
              else if c = -1 then Ast.bin Ast.Sub acc a
              else if c >= 0 then Ast.bin Ast.Add acc (Ast.bin Ast.Mul (Ast.int_ c) a)
              else Ast.bin Ast.Sub acc (Ast.bin Ast.Mul (Ast.int_ (-c)) a)
            in
            fold acc (i + 1)
          end
        in
        let acc = fold head (h + 1) in
        if const > 0 then Ast.bin Ast.Add acc (Ast.int_ const)
        else if const < 0 then Ast.bin Ast.Sub acc (Ast.int_ (-const))
        else acc
      end
  in
  ws.t_len <- base;
  result

(* Collect terms of [sign * e] into the region starting at [base],
   threading the accumulated constant part through the return value. *)
and lin_go ws base sign const (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> add_exn const (mul_exn sign n)
  | Ast.Var _ ->
    ws_add ws base sign e;
    const
  | Ast.Neg a -> lin_go ws base (-sign) const a
  | Ast.Bin (Ast.Add, a, b) -> lin_go ws base sign (lin_go ws base sign const a) b
  | Ast.Bin (Ast.Sub, a, b) -> lin_go ws base (-sign) (lin_go ws base sign const a) b
  | Ast.Bin (Ast.Mul, a, b) -> (
      (* Multiplication by a constant distributes exactly over the
         integers; anything else is an opaque atom. *)
      match ((const_fold a).desc, (const_fold b).desc) with
      | Ast.Int k, _ -> lin_go ws base (mul_exn sign k) const b
      | _, Ast.Int k -> lin_go ws base (mul_exn sign k) const a
      | _ -> (
          (* A factor only linearization reduces to a constant
             ([t - t]) distributes too, so that the result is already
             canonical. *)
          let a' = lin ws a and b' = lin ws b in
          match (a'.desc, b'.desc) with
          | Ast.Int k, _ -> lin_go ws base (mul_exn sign k) const b'
          | _, Ast.Int k -> lin_go ws base (mul_exn sign k) const a'
          | _ ->
            ws_add ws base sign
              (if a' == a && b' == b then e else remake e (Ast.Bin (Ast.Mul, a', b')));
            const))
  | Ast.Bin (Ast.Div, a, b) -> (
      (* Truncating division does not distribute; linearize inside, and
         fold what {!const_fold} would fold in the result. *)
      let a' = lin ws a and b' = lin ws b in
      match (a'.desc, b'.desc) with
      | Ast.Int x, Ast.Int y when y <> 0 && not (x = min_int && y = -1) ->
        add_exn const (mul_exn sign (x / y))
      | _, Ast.Int 1 -> lin_go ws base sign const a'
      | _ ->
        ws_add ws base sign
          (if a' == a && b' == b then e else remake e (Ast.Bin (Ast.Div, a', b')));
        const)
  | Ast.Aref (name, subs) ->
    let subs' = map_sharing_with lin ws subs in
    ws_add ws base sign
      (if subs' == subs then e else remake e (Ast.Aref (name, subs')));
    const

let rec subst_raw lookup (e : Ast.expr) : Ast.expr =
  match e.desc with
  | Ast.Int _ -> e
  | Ast.Var v -> (
      match lookup v with Some e' -> e' | None -> e)
  | Ast.Neg a ->
    let a' = subst_raw lookup a in
    if a' == a then e else remake e (Ast.Neg a')
  | Ast.Bin (op, a, b) ->
    let a' = subst_raw lookup a and b' = subst_raw lookup b in
    if a' == a && b' == b then e else remake e (Ast.Bin (op, a', b'))
  | Ast.Aref (name, subs) ->
    let subs' = map_sharing_with subst_raw lookup subs in
    if subs' == subs then e else remake e (Ast.Aref (name, subs'))

let canonicalize e = linearize (const_fold e)
let subst lookup e = canonicalize (subst_raw lookup e)

let is_pure_scalar = no_arrays

let rec iter_assigned f (stmts : Ast.stmt list) =
  match stmts with
  | [] -> ()
  | s :: rest ->
    (match s.sdesc with
     | Ast.Assign (Ast.Lvar v, _) | Ast.Read v -> f v
     | Ast.Assign (Ast.Larr _, _) -> ()
     | Ast.If (_, t, e) ->
       iter_assigned f t;
       iter_assigned f e
     | Ast.For { var; body; _ } ->
       f var;
       iter_assigned f body);
    iter_assigned f rest

let assigned_vars stmts =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  iter_assigned
    (fun v ->
       if not (Hashtbl.mem seen v) then begin
         Hashtbl.add seen v ();
         out := v :: !out
       end)
    stmts;
  List.rev !out

let rec uses_var v (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ -> false
  | Ast.Var x -> String.equal x v
  | Ast.Neg a -> uses_var v a
  | Ast.Bin (_, a, b) -> uses_var v a || uses_var v b
  | Ast.Aref (_, subs) -> List.exists (uses_var v) subs

let rec map_stmt_exprs f (s : Ast.stmt) : Ast.stmt =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e) ->
    let e' = f e in
    if e' == e then s else remake_stmt s (Ast.Assign (Ast.Lvar v, e'))
  | Ast.Assign (Ast.Larr (name, subs), e) ->
    let subs' = map_sharing f subs and e' = f e in
    if subs' == subs && e' == e then s
    else remake_stmt s (Ast.Assign (Ast.Larr (name, subs'), e'))
  | Ast.Read _ -> s
  | Ast.If (cond, t, el) ->
    let lhs = f cond.Ast.lhs and rhs = f cond.Ast.rhs in
    let t' = map_sharing (map_stmt_exprs f) t in
    let el' = map_sharing (map_stmt_exprs f) el in
    if lhs == cond.Ast.lhs && rhs == cond.Ast.rhs && t' == t && el' == el then s
    else remake_stmt s (Ast.If ({ cond with Ast.lhs; rhs }, t', el'))
  | Ast.For ({ lo; hi; step; body; _ } as l) ->
    let lo' = f lo and hi' = f hi in
    let step' =
      match step with
      | None -> None
      | Some st ->
        let st' = f st in
        if st' == st then step else Some st'
    in
    let body' = map_sharing (map_stmt_exprs f) body in
    if lo' == lo && hi' == hi && step' == step && body' == body then s
    else remake_stmt s (Ast.For { l with lo = lo'; hi = hi'; step = step'; body = body' })

let map_program_exprs f prog = map_sharing (map_stmt_exprs f) prog
