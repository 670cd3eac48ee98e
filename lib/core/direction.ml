open Dda_numeric

type dir =
  | Dlt
  | Deq
  | Dgt
  | Dany

let dir_char = function Dlt -> '<' | Deq -> '=' | Dgt -> '>' | Dany -> '*'

(* "(<,=,*)": one allocation, no formatter — reports render thousands. *)
let vector_to_string v =
  let n = Array.length v in
  if n = 0 then "()"
  else
    String.init ((2 * n) + 1) (fun i ->
        if i = 0 then '('
        else if i = 2 * n then ')'
        else if i land 1 = 1 then dir_char v.(i / 2)
        else ',')

let add_vector buf v =
  Buffer.add_char buf '(';
  for i = 0 to Array.length v - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_char buf (dir_char v.(i))
  done;
  Buffer.add_char buf ')'

let pp_vector fmt v = Format.pp_print_string fmt (vector_to_string v)

let flip = function
  | Dlt -> Dgt
  | Dgt -> Dlt
  | (Deq | Dany) as d -> d

let rec lead_from v k =
  if k >= Array.length v then Deq
  else match v.(k) with Deq -> lead_from v (k + 1) | (Dlt | Dgt | Dany) as d -> d

let lead v = lead_from v 0

type prune = {
  unused : bool;
  distance : bool;
}

let no_pruning = { unused = false; distance = false }
let full_pruning = { unused = true; distance = true }

type counts = {
  mutable by_test : int array;
  mutable indep_by_test : int array;
}

let fresh_counts () = { by_test = Array.make 4 0; indep_by_test = Array.make 4 0 }

let merge_counts ~into src =
  Array.iteri (fun i v -> into.by_test.(i) <- into.by_test.(i) + v) src.by_test;
  Array.iteri
    (fun i v -> into.indep_by_test.(i) <- into.indep_by_test.(i) + v)
    src.indep_by_test

type result = {
  dependent : bool;
  vectors : dir array list;
  distance : Zint.t array option;
  implicit_bb : bool;
  degraded : Budget.reason option;
}

(* Direction constraint rows for level k, in original-variable space. *)
let dir_rows problem k d =
  let row pc qc rhs =
    let coeffs = Array.make (Problem.nvars problem) Zint.zero in
    coeffs.(Problem.var1 problem k) <- Zint.of_int pc;
    coeffs.(Problem.var2 problem k) <- Zint.of_int qc;
    { Consys.coeffs; rhs = Zint.of_int rhs }
  in
  match d with
  | Dlt -> [ row 1 (-1) (-1) ]  (* x_p - x_q <= -1 *)
  | Deq -> [ row 1 (-1) 0; row (-1) 1 0 ]
  | Dgt -> [ row (-1) 1 (-1) ]
  | Dany -> []

let first_difference problem red k d =
  let base = red.Gcd_test.system in
  let rows =
    List.concat (List.init k (fun j -> dir_rows problem j Deq))
    @ dir_rows problem k d
  in
  Consys.make ~nvars:base.Consys.nvars
    (base.Consys.rows @ List.map (Gcd_test.transform_row red) rows)

(* Direction rows in reduced (free-variable) space, memoized per
   (level, direction): the refinement tree re-tests each level
   constraint many times, and [Gcd_test.transform_row] is a dense
   matrix-vector product worth doing once. Rows are immutable, so
   sharing them across the systems of different vectors is safe. The
   cache lives per [refine] call — no module-level state. *)
let make_dir_row_cache problem red =
  let cache = Array.make (3 * problem.Problem.ncommon) None in
  fun k d ->
    match d with
    | Dany -> []
    | Dlt | Deq | Dgt ->
      let idx = (3 * k) + (match d with Dlt -> 0 | Deq -> 1 | Dgt -> 2 | Dany -> assert false) in
      (match cache.(idx) with
       | Some rows -> rows
       | None ->
         let rows = List.map (Gcd_test.transform_row red) (dir_rows problem k d) in
         cache.(idx) <- Some rows;
         rows)

let system_for red dir_rows_tr vector =
  let extra = ref [] in
  Array.iteri
    (fun k d -> List.iter (fun r -> extra := r :: !extra) (dir_rows_tr k d))
    vector;
  { red.Gcd_test.system with
    Consys.rows = !extra @ red.Gcd_test.system.Consys.rows }

(* A common level is "unused" when its two variables appear in no
   subscript equation and only in their own bound rows. *)
let unused_level problem k =
  let p = Problem.var1 problem k and q = Problem.var2 problem k in
  let absent_in_eqs =
    List.for_all
      (fun (r : Consys.row) ->
         Zint.is_zero r.coeffs.(p) && Zint.is_zero r.coeffs.(q))
      problem.Problem.eqs
  in
  absent_in_eqs
  && List.for_all
       (fun (b : Problem.bound) ->
          (Zint.is_zero b.row.Consys.coeffs.(p) || b.subject = p)
          && (Zint.is_zero b.row.Consys.coeffs.(q) || b.subject = q))
       problem.Problem.ineqs

let refine ?budget ?(prune = full_pruning) ?(fm_tighten = false) ?counts
    ?(exclude_all_eq = false) problem red =
  let counts = match counts with Some c -> c | None -> fresh_counts () in
  (* Set once the budget runs out mid-refinement; the exhaustion is
     sticky, so every later test answers [Exhausted] instantly and the
     hierarchy unwinds recording conservative cells. *)
  let degraded = ref None in
  let ncommon = problem.Problem.ncommon in
  let all_eq v = Array.for_all (fun d -> d = Deq) v in
  (* Levels fixed by pruning: Some dir (possibly Dany for unused). *)
  let fixed = Array.make ncommon None in
  if prune.unused then
    for k = 0 to ncommon - 1 do
      if unused_level problem k then fixed.(k) <- Some Dany
    done;
  let deltas =
    Array.init ncommon (fun k ->
        Gcd_test.delta red (Problem.var1 problem k) (Problem.var2 problem k))
  in
  if prune.distance then
    for k = 0 to ncommon - 1 do
      if fixed.(k) = None then
        match deltas.(k) with
        | Some d ->
          (* x_p - x_q = d always; direction is determined by sign. *)
          let dir =
            let s = Zint.sign d in
            if s < 0 then Dlt else if s = 0 then Deq else Dgt
          in
          fixed.(k) <- Some dir
        | None -> ()
    done;
  let distance =
    (* delta is x_p - x_q = i - i'; the distance vector is i' - i. *)
    let all_const = Array.for_all (fun d -> d <> None) deltas in
    if all_const && ncommon > 0 then
      Some (Array.map (fun d -> Zint.neg (Option.get d)) deltas)
    else None
  in
  let dir_rows_tr = make_dir_row_cache problem red in
  let run_test vector =
    let r = Cascade.run ?budget ~fm_tighten (system_for red dir_rows_tr vector) in
    let i = Cascade.test_index r.decided_by in
    counts.by_test.(i) <- counts.by_test.(i) + 1;
    (match r.verdict with
     | Cascade.Independent _ -> counts.indep_by_test.(i) <- counts.indep_by_test.(i) + 1
     | Cascade.Exhausted reason -> if !degraded = None then degraded := Some reason
     | Cascade.Dependent _ | Cascade.Unknown -> ());
    r.verdict
  in
  (* Hierarchical refinement. [k] is the next level to expand;
     pruning-fixed levels are skipped (they carry their direction in
     [vector]). *)
  let vectors = ref [] in
  let root_vector = Array.init ncommon (fun k -> Option.value fixed.(k) ~default:Dany) in
  let rec expand vector k verdict_known_dependent =
    (* Find next expandable level. *)
    let rec next k =
      if k >= ncommon then None
      else if fixed.(k) = None then Some k
      else next (k + 1)
    in
    match next k with
    | None ->
      (* Fully refined (modulo pruning): record if dependent. The
         all-[=] vector of a self pair is the identity instance. *)
      if exclude_all_eq && all_eq vector then false
      else begin
        let dependent =
          if verdict_known_dependent then true
          else
            match run_test vector with
            | Cascade.Independent _ -> false
            | Cascade.Dependent _ | Cascade.Unknown | Cascade.Exhausted _ -> true
        in
        if dependent then vectors := Array.copy vector :: !vectors;
        dependent
      end
    | Some k ->
      let any = ref false in
      List.iter
        (fun d ->
           vector.(k) <- d;
           (match run_test vector with
            | Cascade.Independent _ -> ()
            | Cascade.Exhausted _ ->
              (* The budget is gone (and sticky): record this whole
                 subtree as one conservative cell — deeper levels stay
                 [*] — instead of recursing into tests that can no
                 longer answer. *)
              if not (exclude_all_eq && all_eq vector) then
                vectors := Array.copy vector :: !vectors;
              any := true
            | Cascade.Dependent _ | Cascade.Unknown ->
              if expand vector (k + 1) true then any := true);
           vector.(k) <- Dany)
        [ Dlt; Deq; Dgt ];
      !any
  in
  if exclude_all_eq && ncommon = 0 then
    (* A loop-less self pair has only the identity instance. *)
    { dependent = false; vectors = []; distance = None; implicit_bb = false;
      degraded = None }
  else begin
  (* Root test: the paper's (*,...,*) query. *)
  let root = run_test root_vector in
  match root with
  | Cascade.Independent _ ->
    { dependent = false; vectors = []; distance = None; implicit_bb = false;
      degraded = !degraded }
  | Cascade.Exhausted _ when exclude_all_eq && all_eq root_vector ->
    (* Pruning fixed every level to "=": the one instance left is the
       identity, excluded whatever the budget — the answer a full
       budget gives, so nothing is degraded. *)
    { dependent = false; vectors = []; distance = None; implicit_bb = false;
      degraded = None }
  | Cascade.Exhausted _ ->
    (* No resources even for the root query: the whole pruned space is
       one conservative cell. *)
    {
      dependent = true;
      vectors = [ Array.copy root_vector ];
      distance;
      implicit_bb = false;
      degraded = !degraded;
    }
  | Cascade.Dependent _ | Cascade.Unknown ->
    if Array.for_all Option.is_some fixed then
      if exclude_all_eq && all_eq root_vector then
        { dependent = false; vectors = []; distance = None; implicit_bb = false;
          degraded = !degraded }
      else
        (* Every level pruned: the root vector is the one answer. *)
        {
          dependent = true;
          vectors = [ root_vector ];
          distance;
          implicit_bb = false;
          degraded = !degraded;
        }
    else begin
      let dependent = expand (Array.copy root_vector) 0 false in
      (* The plain test answered "dependent/unknown" but every refined
         vector proved independent: the paper's implicit branch and
         bound (an exact claim only the refinement could make). *)
      {
        dependent;
        vectors = List.rev !vectors;
        distance = (if dependent then distance else None);
        implicit_bb = not dependent && !degraded = None;
        degraded = !degraded;
      }
    end
  end
