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
   deny-DOALL direction only. *)
let scalar_blockers_of ~loop_var body =
  let written = ref SS.empty in
  let exposed = ref SS.empty in
  (* The definite writes in force at the expression being read. *)
  let defn_now = ref SS.empty in
  let read v = if not (SS.mem v !defn_now) then exposed := SS.add v !exposed in
  let read_expr e = Ast.iter_vars read e in
  let expr_reads defn e =
    defn_now := defn;
    read_expr e
  in
  let rec walk_stmts defn stmts = List.fold_left walk_stmt defn stmts
  and walk_stmt defn (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Assign (Ast.Lvar v, e) ->
      expr_reads defn e;
      written := SS.add v !written;
      SS.add v defn
    | Ast.Assign (Ast.Larr (_, subs), e) ->
      defn_now := defn;
      List.iter read_expr subs;
      read_expr e;
      defn
    | Ast.Read v ->
      written := SS.add v !written;
      SS.add v defn
    | Ast.If (c, t, e) ->
      expr_reads defn c.Ast.lhs;
      expr_reads defn c.Ast.rhs;
      let dt = walk_stmts defn t and de = walk_stmts defn e in
      SS.union defn (SS.inter dt de)
    | Ast.For f ->
      defn_now := defn;
      read_expr f.lo;
      read_expr f.hi;
      Option.iter read_expr f.step;
      written := SS.add f.var !written;
      ignore (walk_stmts (SS.add f.var defn) f.body);
      defn
  in
  ignore (walk_stmts (SS.singleton loop_var) body);
  SS.elements (SS.inter !written !exposed)

(* ------------------------------------------------------------------ *)
(* Reduction-shaped statements                                         *)
(* ------------------------------------------------------------------ *)

let rec expr_uses_array name (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Neg a -> expr_uses_array name a
  | Ast.Bin (_, a, b) -> expr_uses_array name a || expr_uses_array name b
  | Ast.Aref (n, subs) ->
    String.equal n name || List.exists (expr_uses_array name) subs

let commutative = function
  | Ast.Add | Ast.Mul -> true
  | Ast.Sub | Ast.Div -> false

(* x = x - e accumulates too (a sum of negated terms); x = e - x and
   anything with Div do not. *)
let reduction_op = function
  | Ast.Add | Ast.Sub | Ast.Mul -> true
  | Ast.Div -> false

(* Collect the reduction-shaped assignments anywhere in the body
   (conditionals and inner loops included), plus, per scalar, whether
   it is an accumulator: every write of it is an accumulation, and it
   is read nowhere but in its own accumulations. A scalar read
   elsewhere in the body — [b[i] = s] after [s = s + a[i]] — sees a
   partial sum, so the loop is a scan, not a reduction. *)
let reductions_of body =
  let slocs = ref [] in
  let scalar_writes = Hashtbl.create 8 in (* name -> all-reductions flag *)
  let read_elsewhere = Hashtbl.create 8 in
  let note_scalar v is_red =
    let prev = Option.value (Hashtbl.find_opt scalar_writes v) ~default:true in
    Hashtbl.replace scalar_writes v (prev && is_red)
  in
  let note_read v = Hashtbl.replace read_elsewhere v () in
  let note_reads e = Ast.iter_vars note_read e in
  let classify (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Assign (Ast.Larr (a, subs), e) -> (
        List.iter note_reads subs;
        note_reads e;
        match e.desc with
        | Ast.Bin (op, l, r) ->
          let matches cell other =
            match cell.Ast.desc with
            | Ast.Aref (a', subs')
              when String.equal a' a
                   && List.length subs = List.length subs'
                   && List.for_all2 Ast.equal_expr subs subs'
                   && (not (expr_uses_array a other))
                   && not (List.exists (expr_uses_array a) subs) ->
              true
            | _ -> false
          in
          if (reduction_op op && matches l r) || (commutative op && matches r l)
          then slocs := s.sloc :: !slocs
        | _ -> ())
    | Ast.Assign (Ast.Lvar v, ({ desc = Ast.Bin (op, l, r); _ } as e)) ->
      let matches cell other =
        match cell.Ast.desc with
        | Ast.Var v' when String.equal v' v ->
          not (Ast.mentions v other)
        | _ -> false
      in
      let is_red =
        (reduction_op op && matches l r) || (commutative op && matches r l)
      in
      if is_red then begin
        slocs := s.sloc :: !slocs;
        Ast.iter_vars (fun v' -> if not (String.equal v' v) then note_read v') e
      end
      else note_reads e;
      note_scalar v is_red
    | Ast.Assign (Ast.Lvar v, e) ->
      note_reads e;
      note_scalar v false
    | Ast.Read v -> note_scalar v false
    | Ast.For { var; lo; hi; step; _ } ->
      note_reads lo;
      note_reads hi;
      Option.iter note_reads step;
      note_scalar var false
    | Ast.If (c, _, _) ->
      note_reads c.Ast.lhs;
      note_reads c.Ast.rhs
  in
  Ast.iter_stmts classify body;
  let scalar_red_ok v =
    Option.value (Hashtbl.find_opt scalar_writes v) ~default:false
    && not (Hashtbl.mem read_elsewhere v)
  in
  (!slocs, scalar_red_ok)

(* ------------------------------------------------------------------ *)
(* Witness replay                                                      *)
(* ------------------------------------------------------------------ *)

(* A problem's replay state: its extended-gcd reduction ([None] when
   the gcd test proves independence) and the answers already computed
   per (level, direction). *)
type replay_entry = {
  reduced : (Problem.t * Gcd_test.reduction) option;
  mutable answers : ((int * Direction.dir) * witness option) list;
}

(* The replay memo of one [compute] call, keyed by the problem itself,
   read in place: the layout ([n1], [n2], [nsym], [ncommon]) and every
   equality and inequality row's coefficients and rhs as written, plus
   each bound's [subject]; names are ignored. Signs are kept as they
   are — [Problem.to_key] makes every equality's leading coefficient
   positive, but a negated row can reduce to a different particular
   solution and so to different witness iterations. [Zint] equality
   and hashing cover coefficients past the native int range. *)
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

(* The entry for [p]: found, or reduced and added. *)
let find_entry memo p =
  match Replay_memo.find_opt memo p with
  | Some e -> e
  | None ->
    let e =
      match Gcd_test.run p with
      | Gcd_test.Independent _ -> { reduced = None; answers = [] }
      | Gcd_test.Reduced red -> { reduced = Some (p, red); answers = [] }
    in
    Replay_memo.add memo p e;
    e

(* One witness query: levels before [k] constrained equal, level [k]
   strict in direction [sign], and the cascade asked for a witness.
   [Error ()] when the budget ran out — that answer says nothing about
   the problem, so it is not cached. *)
let attempt ~(config : Analyzer.config) ~cancel (p, red) k sign =
  let sys = Direction.first_difference p red k sign in
  let budget = Budget.create ?cancel config.Analyzer.limits in
  let cas = Cascade.run ~budget ~fm_tighten:config.Analyzer.fm_tighten sys in
  match cas.Cascade.verdict with
  | Cascade.Dependent w ->
    let x = Gcd_test.x_of_t red w in
    Ok
      (Some
         {
           iter1 = Array.init p.Problem.ncommon (fun j -> x.(Problem.var1 p j));
           iter2 = Array.init p.Problem.ncommon (fun j -> x.(Problem.var2 p j));
         })
  | Cascade.Independent _ | Cascade.Unknown -> Ok None
  | Cascade.Exhausted _ -> Error ()

(* The witness replayer of one pair: [replay edge k] re-derives a
   concrete iteration pair realizing [edge] at carrier level [k]. The
   pair's problem is built on first demand and looked up in [memo]:
   pairs with identical problems share one gcd reduction and one
   cascade query per (level, direction). Budget exhaustion or an
   unknown just loses the witness. *)
let pair_replayer ~memo ~config ~cancel ((s1 : Affine.site), (s2 : Affine.site))
    =
  let entry =
    lazy (Option.map (find_entry memo) (Build_problem.build s1 s2))
  in
  let query e pr k sign =
    match List.assoc_opt (k, sign) e.answers with
    | Some w -> w
    | None -> (
        match attempt ~config ~cancel pr k sign with
        | Ok w ->
          e.answers <- ((k, sign), w) :: e.answers;
          w
        | Error () -> None)
  in
  fun (edge : Classify.edge) k ->
    match Lazy.force entry with
    | None | Some { reduced = None; _ } -> None
    | Some ({ reduced = Some pr; _ } as e) ->
      let signs =
        match edge.Classify.vector with
        | Some v when k < Array.length v -> (
            match v.(k) with
            | Direction.Dlt -> [ Direction.Dlt ]
            | Direction.Dgt -> [ Direction.Dgt ]
            | Direction.Dany | Direction.Deq ->
              [ Direction.Dlt; Direction.Dgt ])
        | _ -> [ Direction.Dlt; Direction.Dgt ]
      in
      List.find_map (query e pr k) signs

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* One pair-major pass: each pair's edges are classified, and each edge
   is pushed (with its witness) onto the bucket of every loop it may
   carry — at the level that loop holds in the pair's common nest.
   Walking pairs in order, and edges in order within a pair, leaves
   every bucket in edge order once reversed. A pair's replayer is
   dropped before the next pair; the replay memo it draws on lives
   until [compute] returns. *)
let compute ?(config = Analyzer.default_config) ?cancel ~prepared ~pairs
    (report : Analyzer.report) =
  let metas = loop_metas prepared in
  let nloops = List.length metas in
  let buckets = Array.make nloops [] in
  let edges_rev = ref [] in
  let memo = Replay_memo.create 64 in
  let add_pair (r : Analyzer.pair_report) sites =
    let replay =
      match sites with
      | Some ss -> pair_replayer ~memo ~config ~cancel ss
      | None -> fun _ _ -> None
    in
    List.iter
      (fun (e : Classify.edge) ->
         edges_rev := e :: !edges_rev;
         List.iteri
           (fun k lid ->
              if lid >= 0 && lid < nloops && List.mem lid e.carried_lids then
                buckets.(lid) <-
                  { edge = e; witness = replay e k } :: buckets.(lid))
           r.common_ids)
      (Classify.pair_edges r)
  in
  (match List.combine report.pair_reports pairs with
   | combined -> List.iter (fun (r, ss) -> add_pair r (Some ss)) combined
   | exception Invalid_argument _ ->
     (* The caller broke the pair-order contract: lose the witnesses,
        keep the verdicts. *)
     List.iter (fun r -> add_pair r None) report.pair_reports);
  let loops =
    List.map
      (fun m ->
         let blocking = List.rev buckets.(m.m_lid) in
         let scalar_blockers = scalar_blockers_of ~loop_var:m.m_for.var m.m_for.body in
         let verdict =
           if blocking = [] && scalar_blockers = [] then Doall
           else begin
             let red_slocs, scalar_red_ok = reductions_of m.m_for.body in
             let reduction_ok =
               List.for_all
                 (fun { edge = e; _ } ->
                    List.exists (Loc.equal e.Classify.pair.stmt1) red_slocs
                    && List.exists (Loc.equal e.pair.stmt2) red_slocs)
                 blocking
               && List.for_all scalar_red_ok scalar_blockers
             in
             let vectorizable_ok =
               scalar_blockers = []
               && List.for_all
                    (fun { edge = e; _ } -> e.Classify.exact && e.kind = Analyzer.Anti)
                    blocking
             in
             if reduction_ok then Reduction
             else if vectorizable_ok then Vectorizable
             else Serial
           end
         in
         let degraded = List.exists (fun { edge; _ } -> not edge.Classify.exact) blocking in
         { lid = m.m_lid; var = m.m_for.var; loc = m.m_loc; depth = m.m_depth;
           parallel_annot = m.m_for.parallel; verdict; blocking; scalar_blockers;
           degraded })
      metas
  in
  { loops; edges = List.rev !edges_rev }
