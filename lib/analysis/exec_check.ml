open Dda_lang
open Dda_core

type 'a outcome =
  | Ran of 'a
  | Cannot_run of string * Loc.t

let fuel = 5_000_000

type pairs = {
  pairs : int;
  mismatches : (Analyzer.pair_report * bool) list;
  unexercised : int;
}

let pairs prog =
  (* Full refinement and no prepass: the claims compared to the trace
     must be concrete. *)
  let config =
    {
      Analyzer.default_config with
      Analyzer.prune = Direction.no_pruning;
      memo = Analyzer.Memo_simple;
      run_pipeline = false;
    }
  in
  let { Analyzer.pairs; _ } = Analyzer.front_end config prog in
  let report = Analyzer.analyze_sites ~config pairs in
  (* Statements in an [if] branch run only where the guard holds. *)
  let guarded = Hashtbl.create 16 in
  Ast.iter_stmts
    (fun s ->
       match s.Ast.sdesc with
       | Ast.If (_, then_, else_) ->
         Ast.iter_stmts (fun s -> Hashtbl.replace guarded s.Ast.sloc ()) (then_ @ else_)
       | Ast.Assign _ | Ast.For _ | Ast.Read _ -> ())
    prog;
  (* An exact "dependent" is existential: some values of the symbolic
     terms, some iterations an [if] leaves out, make the references
     meet. One run fixes both, so it can refute the claim only for a
     reference whose subscripts and bounds are loop variables and
     constants, outside every [if]. *)
  let fixed (s : Affine.site) =
    let fixed_expr = function
      | None -> false
      | Some e ->
        not
          (Symexpr.exists_var
             (fun v ->
                not (List.exists (fun (c : Affine.loop_ctx) -> c.lvar = v) s.loops))
             e)
    in
    (not (Hashtbl.mem guarded s.stmt_loc))
    && List.for_all fixed_expr s.subscripts
    && List.for_all (fun (c : Affine.loop_ctx) -> fixed_expr c.lb && fixed_expr c.ub)
         s.loops
  in
  (* One execution serves every pair; a program with no pair is not
     run at all. *)
  let run = lazy (Trace.execute ~fuel prog) in
  let mismatches = ref [] in
  let unexercised = ref 0 in
  match
    List.iter2
      (fun (s1, s2) (r : Analyzer.pair_report) ->
         let observed = Trace.dependent_in (Lazy.force run) ~site1:r.loc1 ~site2:r.loc2 in
         let claim_dep, claim_exact =
           match r.outcome with
           | Analyzer.Constant d -> (d, true)
           | Analyzer.Gcd_independent -> (false, true)
           | Analyzer.Assumed_dependent -> (true, false)
           | Analyzer.Tested t -> (t.dependent, not t.unknown)
         in
         let refutable = claim_exact && ((not claim_dep) || (fixed s1 && fixed s2)) in
         let ok = if refutable then claim_dep = observed else claim_dep || not observed in
         if claim_exact && (not refutable) && not observed then incr unexercised;
         if not ok then mismatches := (r, claim_dep) :: !mismatches)
      pairs report.pair_reports
  with
  | () ->
    let pairs = List.length report.pair_reports in
    Ran { pairs; mismatches = List.rev !mismatches; unexercised = !unexercised }
  | exception Interp.Runtime_error (msg, loc) -> Cannot_run (msg, loc)

type doall = {
  doall : int;
  executed : int;
  refuted : string option;
}

(* What one execution of a DOALL loop has done to one cell (an array
   element, or a scalar at indices [[]]). Iterations run one after
   another, so an access in an iteration other than [last] is that
   iteration's first access to the cell. *)
type touch = {
  first : int;  (* the iteration that touched it first *)
  mutable last : int;  (* the latest iteration that touched it *)
  mutable written : bool;
  mutable exposed : int option;
      (* an iteration whose first access to the scalar was a read *)
}

type tracker = {
  loop : Summary.loop_info;
  mutable instance : int;  (* the execution of the loop under way *)
  cells : (string * int list, touch) Hashtbl.t;  (* of that execution *)
}

exception Refuted of string

let refute (li : Summary.loop_info) fmt =
  let named msg = Printf.sprintf "doall loop '%s' at %s: %s" li.var (Loc.to_string li.loc) msg in
  Printf.ksprintf (fun msg -> raise (Refuted (named msg))) fmt

let touch t (f : Interp.frame) (a : Interp.access) =
  if t.instance <> f.instance then begin
    t.instance <- f.instance;
    Hashtbl.reset t.cells
  end;
  let k = f.value and write = a.role = `Write in
  let exposes = (not write) && a.indices = [] in
  let c =
    match Hashtbl.find_opt t.cells (a.array, a.indices) with
    | Some c when c.last = k -> c
    | Some c ->
      c.last <- k;
      if exposes && c.exposed = None then c.exposed <- Some k;
      c
    | None ->
      let c = { first = k; last = k; written = false; exposed = None } in
      Hashtbl.replace t.cells (a.array, a.indices) c;
      if exposes then c.exposed <- Some k;
      c
  in
  if write then c.written <- true;
  if c.written then
    match (a.indices, c.exposed) with
    | _ :: _, _ when c.last <> c.first ->
      refute t.loop "iterations %s = %d and %s = %d both touch %s%s, one of them writing"
        f.var c.first f.var c.last a.array
        (String.concat "" (List.map (Printf.sprintf "[%d]") a.indices))
    | [], Some e ->
      refute t.loop "iteration %s = %d reads %s before writing it, and the loop writes %s"
        f.var e a.array a.array
    | _ -> ()

let doall ~prepared (summary : Summary.t) =
  let trackers = Hashtbl.create 16 in
  List.iter
    (fun (li : Summary.loop_info) ->
       if li.verdict = Summary.Doall then
         Hashtbl.replace trackers li.loc
           { loop = li; instance = -1; cells = Hashtbl.create 64 })
    summary.loops;
  let check (a : Interp.access) =
    List.iter
      (fun (f : Interp.frame) ->
         match Hashtbl.find_opt trackers f.loop with
         | Some t -> touch t f a
         | None -> ())
      a.frames
  in
  let ran refuted =
    let executed = Hashtbl.fold (fun _ t n -> if t.instance >= 0 then n + 1 else n) trackers 0 in
    Ran { doall = Hashtbl.length trackers; executed; refuted }
  in
  match Interp.iter ~fuel ~inputs:[ ("n", 6) ] check prepared with
  | () -> ran None
  | exception Refuted msg -> ran (Some msg)
  | exception Interp.Runtime_error (msg, loc) -> Cannot_run (msg, loc)
