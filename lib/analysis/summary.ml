open Dda_numeric
open Dda_lang
open Dda_core
module SS = Set.Make (String)

type verdict = Doall | Vectorizable | Reduction | Serial

let verdict_name = function
  | Doall -> "doall"
  | Vectorizable -> "vectorizable"
  | Reduction -> "reduction"
  | Serial -> "serial"

type witness = {
  iter1 : Zint.t array;
  iter2 : Zint.t array;
}

type blocking = {
  edge : Classify.edge;
  witness : witness option;
}

type loop_info = {
  lid : int;
  var : string;
  loc : Loc.t;
  depth : int;
  parallel_annot : bool;
  verdict : verdict;
  blocking : blocking list;
  scalar_blockers : string list;
  degraded : bool;
}

type t = {
  loops : loop_info list;
  edges : Classify.edge list;
}

let doall_loops t =
  List.map (fun li -> (li.lid, li.verdict = Doall)) t.loops
  |> List.sort compare

let is_doall t loc =
  List.exists (fun li -> Loc.equal li.loc loc && li.verdict = Doall) t.loops

(* ------------------------------------------------------------------ *)
(* Loop metadata: ids assigned in the same pre-order as Affine.extract *)
(* ------------------------------------------------------------------ *)

type loop_meta = {
  m_lid : int;
  m_loc : Loc.t;
  m_depth : int;
  m_for : Ast.for_loop;
}

let loop_metas prog =
  let out = ref [] and next = ref 0 in
  let rec walk depth (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Assign _ | Ast.Read _ -> ()
    | Ast.If (_, t, e) ->
      List.iter (walk depth) t;
      List.iter (walk depth) e
    | Ast.For f ->
      let lid = !next in
      incr next;
      out :=
        { m_lid = lid; m_loc = s.sloc; m_depth = depth; m_for = f }
        :: !out;
      List.iter (walk (depth + 1)) f.body
  in
  List.iter (walk 0) prog;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Carried scalar dependences                                          *)
(* ------------------------------------------------------------------ *)

(* A scalar both (possibly) written in the body and read
   upward-exposed — read on some path before any definite write of the
   same iteration — makes consecutive iterations communicate through
   it. Writes under conditionals or inside inner loops (which may run
   zero iterations) are not definite; [read] statements and plain
   assignments are. The loop variable itself is definite at entry (the
   loop header writes it every iteration). Over-approximate in the
   deny-DOALL direction only.

   Two walks over the body, by recursions that allocate no closure: the
   first gathers the written scalars, and a body that writes none (most
   of PERFECT's loops) needs no second; the second follows the definite
   writes in force ([defn], returned physically unchanged by a
   statement that adds none) and records the written scalars read
   outside them. Sets grow only at a scalar's first write or exposed
   read. *)

let rec writes acc = function
  | [] -> acc
  | (s : Ast.stmt) :: rest ->
    let acc =
      match s.sdesc with
      | Ast.Assign (Ast.Lvar v, _) | Ast.Read v -> SS.add v acc
      | Ast.Assign (Ast.Larr _, _) -> acc
      | Ast.If (_, t, e) -> writes (writes acc t) e
      | Ast.For f -> writes (SS.add f.var acc) f.body
    in
    writes acc rest

type scalars = {
  written : SS.t;
  mutable exposed : SS.t;
}

let rec expose sc defn (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ -> ()
  | Ast.Var v ->
    if SS.mem v sc.written && not (SS.mem v defn) then sc.exposed <- SS.add v sc.exposed
  | Ast.Neg a -> expose sc defn a
  | Ast.Bin (_, a, b) ->
    expose sc defn a;
    expose sc defn b
  | Ast.Aref (_, subs) -> expose_all sc defn subs

and expose_all sc defn = function
  | [] -> ()
  | e :: es ->
    expose sc defn e;
    expose_all sc defn es

(* The definite writes in force after [stmts], given [defn] on entry. *)
let rec scan sc defn = function
  | [] -> defn
  | (s : Ast.stmt) :: rest ->
    let defn =
      match s.sdesc with
      | Ast.Assign (Ast.Lvar v, e) ->
        expose sc defn e;
        SS.add v defn
      | Ast.Assign (Ast.Larr (_, subs), e) ->
        expose_all sc defn subs;
        expose sc defn e;
        defn
      | Ast.Read v -> SS.add v defn
      | Ast.If (c, t, e) ->
        expose sc defn c.Ast.lhs;
        expose sc defn c.Ast.rhs;
        let dt = scan sc defn t in
        let de = scan sc defn e in
        (* Both contain [defn]: a branch that adds nothing decides. *)
        if dt == defn || de == defn then defn else SS.inter dt de
      | Ast.For f ->
        expose sc defn f.lo;
        expose sc defn f.hi;
        (match f.step with Some e -> expose sc defn e | None -> ());
        ignore (scan sc (SS.add f.var defn) f.body);
        defn
    in
    scan sc defn rest

let scalar_blockers_of ~loop_var body =
  let written = writes SS.empty body in
  if SS.is_empty written then []
  else begin
    let sc = { written; exposed = SS.empty } in
    ignore (scan sc (SS.singleton loop_var) body);
    SS.elements sc.exposed
  end

(* ------------------------------------------------------------------ *)
(* Reduction-shaped statements                                         *)
(* ------------------------------------------------------------------ *)

let rec expr_uses_array name (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Neg a -> expr_uses_array name a
  | Ast.Bin (_, a, b) -> expr_uses_array name a || expr_uses_array name b
  | Ast.Aref (n, subs) -> String.equal n name || any_uses_array name subs

and any_uses_array name = function
  | [] -> false
  | e :: es -> expr_uses_array name e || any_uses_array name es

let commutative = function
  | Ast.Add | Ast.Mul -> true
  | Ast.Sub | Ast.Div -> false

(* x = x - e accumulates too (a sum of negated terms); x = e - x and
   anything with Div do not. *)
let reduction_op = function
  | Ast.Add | Ast.Sub | Ast.Mul -> true
  | Ast.Div -> false

(* [cell] is the assigned array cell [a[subs]], and [other] does not
   touch [a]. *)
let array_cell a subs (cell : Ast.expr) other =
  match cell.desc with
  | Ast.Aref (a', subs') ->
    String.equal a' a
    && List.compare_lengths subs subs' = 0
    && List.for_all2 Ast.equal_expr subs subs'
    && (not (expr_uses_array a other))
    && not (any_uses_array a subs)
  | _ -> false

(* [cell] is the assigned scalar [v], and [other] does not read it. *)
let scalar_cell v (cell : Ast.expr) other =
  match cell.desc with
  | Ast.Var v' -> String.equal v' v && not (Ast.mentions v other)
  | _ -> false

(* [v = v ⊕ e] (or [e ⊕ v] for a commutative [⊕]). *)
let accumulates v (e : Ast.expr) =
  match e.desc with
  | Ast.Bin (op, l, r) ->
    (reduction_op op && scalar_cell v l r) || (commutative op && scalar_cell v r l)
  | _ -> false

let reduction_shaped (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (Ast.Larr (a, subs), { desc = Ast.Bin (op, l, r); _ }) ->
    (reduction_op op && array_cell a subs l r) || (commutative op && array_cell a subs r l)
  | Ast.Assign (Ast.Lvar v, e) -> accumulates v e
  | Ast.Assign (Ast.Larr _, _) | Ast.Read _ | Ast.For _ | Ast.If _ -> false

(* The locations of the reduction-shaped assignments anywhere in
   [stmts] (conditionals and inner loops included), added to [acc]. *)
let rec reduction_locs acc = function
  | [] -> acc
  | (s : Ast.stmt) :: rest ->
    let acc = if reduction_shaped s then s.sloc :: acc else acc in
    let acc =
      match s.sdesc with
      | Ast.For f -> reduction_locs acc f.body
      | Ast.If (_, t, e) -> reduction_locs (reduction_locs acc t) e
      | Ast.Assign _ | Ast.Read _ -> acc
    in
    reduction_locs acc rest

let rec spoil bad (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ -> bad
  | Ast.Var v -> SS.add v bad
  | Ast.Neg a -> spoil bad a
  | Ast.Bin (_, a, b) -> spoil (spoil bad a) b
  | Ast.Aref (_, subs) -> spoil_all bad subs

and spoil_all bad = function
  | [] -> bad
  | e :: es -> spoil_all (spoil bad e) es

(* Add to [bad] every scalar of [stmts] written other than by an
   accumulation, or read anywhere but in its own accumulations. *)
let rec spoilt bad = function
  | [] -> bad
  | (s : Ast.stmt) :: rest ->
    let bad =
      match s.sdesc with
      | Ast.Assign (Ast.Lvar w, ({ desc = Ast.Bin (_, l, r); _ } as e)) when accumulates w e
        ->
        (* [w ⊕ x] or [x ⊕ w]: only [x] is read. *)
        spoil bad (match l.desc with Ast.Var v when String.equal v w -> r | _ -> l)
      | Ast.Assign (Ast.Lvar w, e) -> SS.add w (spoil bad e)
      | Ast.Assign (Ast.Larr (_, subs), e) -> spoil (spoil_all bad subs) e
      | Ast.Read w -> SS.add w bad
      | Ast.For f ->
        let bad = spoil (spoil (SS.add f.var bad) f.lo) f.hi in
        let bad = match f.step with Some e -> spoil bad e | None -> bad in
        spoilt bad f.body
      | Ast.If (c, t, e) -> spoilt (spoilt (spoil (spoil bad c.Ast.lhs) c.Ast.rhs) t) e
    in
    spoilt bad rest

(* Whether each of [vs], scalars written in [body], is an accumulator
   there: every write of it is an accumulation, and it is read nowhere
   but in its own accumulations. A scalar read elsewhere in the body —
   [b[i] = s] after [s = s + a[i]] — sees a partial sum, so the loop
   is a scan, not a reduction. One walk, whatever the number of
   scalars. *)
let accumulators body = function
  | [] -> true
  | vs ->
    let bad = spoilt SS.empty body in
    List.for_all (fun v -> not (SS.mem v bad)) vs

let rec mem_loc l = function
  | [] -> false
  | l' :: rest -> Loc.equal l l' || mem_loc l rest

(* Every blocking edge joins two reduction-shaped statements. *)
let rec within_reductions locs = function
  | [] -> true
  | { edge = e; _ } :: rest ->
    mem_loc e.Classify.pair.stmt1 locs && mem_loc e.pair.stmt2 locs
    && within_reductions locs rest

(* ------------------------------------------------------------------ *)
(* Witness replay                                                      *)
(* ------------------------------------------------------------------ *)

(* One witness query's answer: not asked yet, or the witness found, if
   any. An exhausted query leaves it [Unasked]: that answer says
   nothing about the problem. *)
type answer =
  | Unasked
  | Answered of witness option

(* A pair's replay state. The memo tables hold the last two: a problem
   with no witness to give (none built, or the gcd test proves
   independence), or its extended-gcd reduction and the answers so far,
   [answers.(2k)] for level [k] in direction [<] and [answers.(2k + 1)]
   for [>]. *)
type entry =
  | Unresolved  (* before the pair's first witness query *)
  | No_witness
  | Reduced of {
      problem : Problem.t;
      red : Gcd_test.reduction;
      answers : answer array;
    }

(* The memo for pairs with no replay key (a value past the small int
   range), keyed by the problem itself, read in place: the layout
   ([n1], [n2], [nsym], [ncommon]) and every equality and inequality
   row's coefficients and rhs as written, plus each bound's [subject];
   names are ignored. That is what the replay key distinguishes.
   [Zint] equality and hashing cover the big coefficients. *)
module Replay_memo = Hashtbl.Make (struct
  type t = Problem.t

  (* Rows of one problem layout have one width. *)
  let equal_row (a : Consys.row) (b : Consys.row) =
    let n = Array.length a.coeffs in
    let rec go i = i >= n || (Zint.equal a.coeffs.(i) b.coeffs.(i) && go (i + 1)) in
    Array.length b.coeffs = n && Zint.equal a.rhs b.rhs && go 0

  let equal_bound (a : Problem.bound) (b : Problem.bound) =
    a.subject = b.subject && equal_row a.row b.row

  let equal (a : t) (b : t) =
    a.n1 = b.n1 && a.n2 = b.n2 && a.nsym = b.nsym && a.ncommon = b.ncommon
    && List.equal equal_row a.eqs b.eqs
    && List.equal equal_bound a.ineqs b.ineqs

  let mix h x = (h * 65599) + x

  let hash_row h (r : Consys.row) =
    let h = ref (mix h (Zint.hash r.rhs)) in
    for i = 0 to Array.length r.coeffs - 1 do
      h := mix !h (Zint.hash r.coeffs.(i))
    done;
    !h

  let hash (p : t) =
    let h = mix (mix (mix (mix 0 p.n1) p.n2) p.nsym) p.ncommon in
    let h = List.fold_left hash_row h p.eqs in
    List.fold_left
      (fun h (b : Problem.bound) -> hash_row (mix h b.subject) b.row)
      h p.ineqs
    land max_int
end)

(* The replay memo of one [compute] call. *)
type replay = {
  config : Analyzer.config;
  cancel : (unit -> bool) option;
  keyed : entry Memo_table.t;  (* by {!Build_problem.replay_key} *)
  built : entry Replay_memo.t;  (* pairs with no replay key *)
}

let reduce = function
  | None -> No_witness
  | Some p -> (
      match Gcd_test.run p with
      | Gcd_test.Independent _ -> No_witness
      | Gcd_test.Reduced red ->
        Reduced { problem = p; red; answers = Array.make (2 * p.Problem.ncommon) Unasked })

(* The entry of the pair at the head of [pairs] ([No_witness] when
   there is none): found by its replay key, written straight from the
   sites, so a pair whose problem is already known builds nothing.
   Only a miss builds the problem and reduces it. A pair with no replay
   key is built and looked up as its problem. *)
let resolve st = function
  | [] -> No_witness
  | (s1, s2) :: _ -> (
      let key = Build_problem.replay_key s1 s2 in
      if Array.length key = 0 then
        match Build_problem.build s1 s2 with
        | None -> No_witness
        | Some p -> (
            match Replay_memo.find_opt st.built p with
            | Some e -> e
            | None ->
              let e = reduce (Some p) in
              Replay_memo.add st.built p e;
              e)
      else
        match Memo_table.find st.keyed key with
        | Some e -> e
        | None ->
          (* The key is the domain's scratch buffer: copy it first. *)
          let key = Array.copy key in
          let e = reduce (Build_problem.build s1 s2) in
          Memo_table.add st.keyed key e;
          e)

(* One witness query: levels before [k] constrained equal, level [k]
   strict in direction [sign], and the cascade asked for a witness.
   [Unasked] when the budget ran out. *)
let attempt st problem red k sign =
  let sys = Direction.first_difference problem red k sign in
  let budget = Budget.create ?cancel:st.cancel st.config.Analyzer.limits in
  let cas = Cascade.run ~budget ~fm_tighten:st.config.Analyzer.fm_tighten sys in
  match cas.Cascade.verdict with
  | Cascade.Dependent w ->
    let x = Gcd_test.x_of_t red w in
    let ncommon = problem.Problem.ncommon in
    Answered
      (Some
         {
           iter1 = Array.init ncommon (fun j -> x.(Problem.var1 problem j));
           iter2 = Array.init ncommon (fun j -> x.(Problem.var2 problem j));
         })
  | Cascade.Independent _ | Cascade.Unknown -> Answered None
  | Cascade.Exhausted _ -> Unasked

(* A level past the entry's common nest (the pair list given does not
   match the report) has no witness to give. *)
let query st problem red answers k sign =
  let i = (2 * k) + match sign with Direction.Dgt -> 1 | _ -> 0 in
  if i >= Array.length answers then None
  else
    match answers.(i) with
    | Answered w -> w
    | Unasked -> (
        match attempt st problem red k sign with
        | Answered w as a ->
          answers.(i) <- a;
          w
        | Unasked -> None)

(* A concrete iteration pair realizing [edge] at carrier level [k]:
   in the direction the edge's vector gives there, else [<] and then
   [>]. Budget exhaustion or an unknown just loses the witness. *)
let witness_of st entry (edge : Classify.edge) k =
  match entry with
  | Unresolved | No_witness -> None
  | Reduced { problem; red; answers } -> (
      let dir =
        match edge.vector with
        | Some v when k < Array.length v -> v.(k)
        | _ -> Direction.Dany
      in
      match dir with
      | Direction.Dlt | Direction.Dgt -> query st problem red answers k dir
      | Direction.Deq | Direction.Dany -> (
          match query st problem red answers k Direction.Dlt with
          | Some _ as w -> w
          | None -> query st problem red answers k Direction.Dgt))

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Push [e] onto the bucket of every loop it may carry, at the level
   [k] that loop holds in the pair's common nest, with its witness.
   The pair's entry is resolved at its first witness query; returns
   it. *)
let rec push_levels st buckets pairs (e : Classify.edge) entry k = function
  | [] -> entry
  | lid :: rest ->
    if lid >= 0 && lid < Array.length buckets && List.mem lid e.carried_lids then begin
      let entry = match entry with Unresolved -> resolve st pairs | _ -> entry in
      buckets.(lid) <- { edge = e; witness = witness_of st entry e k } :: buckets.(lid);
      push_levels st buckets pairs e entry (k + 1) rest
    end
    else push_levels st buckets pairs e entry (k + 1) rest

let rec push_edges st buckets pairs (r : Analyzer.pair_report) entry = function
  | [] -> ()
  | e :: rest ->
    let entry = push_levels st buckets pairs e entry 0 r.common_ids in
    push_edges st buckets pairs r entry rest

(* Every pair's edges, in order, each pushed onto its loops' buckets
   as the pair is reached; the head of [pairs] is the current pair's
   sites. *)
let rec pair_pass st buckets pairs = function
  | [] -> []
  | r :: reports ->
    let edges = Classify.pair_edges r in
    push_edges st buckets pairs r Unresolved edges;
    let rest = match pairs with [] -> [] | _ :: rest -> rest in
    edges @ pair_pass st buckets rest reports

(* One pair-major pass: each pair's edges are classified, and each edge
   is pushed (with its witness) onto the bucket of every loop it may
   carry. Walking pairs in order, and edges in order within a pair,
   leaves every bucket in edge order once reversed. The replay memo
   lives until [compute] returns. *)
let compute ?(config = Analyzer.default_config) ?cancel ~prepared ~pairs
    (report : Analyzer.report) =
  let metas = loop_metas prepared in
  let buckets = Array.make (List.length metas) [] in
  let st =
    { config; cancel; keyed = Memo_table.create ~initial_buckets:16 ();
      built = Replay_memo.create 1 }
  in
  (* A pair list that breaks the pair-order contract loses the
     witnesses, never the verdicts. *)
  let pairs = if List.compare_lengths pairs report.pair_reports = 0 then pairs else [] in
  let edges = pair_pass st buckets pairs report.pair_reports in
  let loops =
    List.map
      (fun m ->
         let blocking = List.rev buckets.(m.m_lid) in
         let scalar_blockers = scalar_blockers_of ~loop_var:m.m_for.var m.m_for.body in
         let verdict =
           if blocking = [] && scalar_blockers = [] then Doall
           else if
             within_reductions (reduction_locs [] m.m_for.body) blocking
             && accumulators m.m_for.body scalar_blockers
           then Reduction
           else if
             scalar_blockers = []
             && List.for_all
                  (fun { edge = e; _ } -> e.Classify.exact && e.kind = Analyzer.Anti)
                  blocking
           then Vectorizable
           else Serial
         in
         let degraded = List.exists (fun { edge; _ } -> not edge.Classify.exact) blocking in
         { lid = m.m_lid; var = m.m_for.var; loc = m.m_loc; depth = m.m_depth;
           parallel_annot = m.m_for.parallel; verdict; blocking; scalar_blockers;
           degraded })
      metas
  in
  { loops; edges }
