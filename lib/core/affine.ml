open Dda_lang

type loop_ctx = {
  lid : int;
  lvar : string;
  lb : Symexpr.t option;
  ub : Symexpr.t option;
}

type site = {
  array : string;
  role : [ `Read | `Write ];
  site_loc : Loc.t;
  stmt_loc : Loc.t;
  loops : loop_ctx list;
  subscripts : Symexpr.t option list;
}

let analyzable s = List.for_all Option.is_some s.subscripts

let constant_subscripts s =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Some e :: rest -> (
        match Symexpr.to_const e with
        | Some c -> go (c :: acc) rest
        | None -> None)
    | None :: _ -> None
  in
  go [] s.subscripts

(* Symbolic terms are versioned by reaching definition: "n#3" is the
   value of n after its third definition. Two sites share a symbol only
   when the same definition reaches both. *)
let sym_name name version = name ^ "#" ^ string_of_int version

(* A scalar's definitions so far, and the name of its current version
   once a subscript or bound has asked for it ([""] until then), so
   every use of one version shares one string. *)
type scalar = {
  mutable version : int;
  mutable symbol : string;
}

type walk_state = {
  symbolic : bool;
  scalars : (string, scalar) Hashtbl.t;
  mutable next_lid : int;
  mutable sites : site list;
  mutable around : (loop_ctx * string list Lazy.t) list;
      (* the loops around the expression being converted *)
  classify : string -> string;  (* one closure per extraction *)
}

let scalar st v =
  match Hashtbl.find st.scalars v with
  | s -> s
  | exception Not_found ->
    let s = { version = 0; symbol = "" } in
    Hashtbl.add st.scalars v s;
    s

let bump st v =
  let s = scalar st v in
  s.version <- s.version + 1;
  s.symbol <- ""

let symbol st v =
  let s = scalar st v in
  if s.symbol = "" then s.symbol <- sym_name v s.version;
  s.symbol

(* The walk below runs once per item on every program, so it keeps its
   per-reference work to what it returns: top-level recursions instead
   of per-call closures and partial applications, and a loop's
   assigned scalars computed only if a symbol asks whether it is
   invariant there. *)

(* [loops] is innermost-first: (ctx, scalars assigned in that loop's
   body). *)
let rec is_loop_var name = function
  | [] -> false
  | ((c : loop_ctx), _) :: rest -> String.equal c.lvar name || is_loop_var name rest

let rec invariant name = function
  | [] -> true
  | (_, assigned) :: rest -> (not (List.mem name (Lazy.force assigned))) && invariant name rest

(* What a scalar stands for in an affine form at the current loops
   (see [Symexpr.of_ast]). *)
let classify st name =
  if is_loop_var name st.around then name
  else if st.symbolic && invariant name st.around then symbol st name
  else ""

let to_symexpr st loops e =
  st.around <- loops;
  Symexpr.of_ast ~classify:st.classify e

let rec symexprs st loops = function
  | [] -> []
  | e :: rest ->
    let se = to_symexpr st loops e in
    se :: symexprs st loops rest

let record st loops role name subs loc ~stmt_loc =
  let subscripts = symexprs st loops subs in
  st.sites <-
    {
      array = name;
      role;
      site_loc = loc;
      stmt_loc;
      loops = List.rev_map fst loops;
      subscripts;
    }
    :: st.sites

(* Array reads appearing inside an expression (including inside other
   references' subscripts). *)
let rec scan_reads st loops stmt_loc (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> ()
  | Ast.Neg a -> scan_reads st loops stmt_loc a
  | Ast.Bin (_, a, b) ->
    scan_reads st loops stmt_loc a;
    scan_reads st loops stmt_loc b
  | Ast.Aref (name, subs) ->
    record st loops `Read name subs e.eloc ~stmt_loc;
    scan_list st loops stmt_loc subs

and scan_list st loops stmt_loc = function
  | [] -> ()
  | e :: rest ->
    scan_reads st loops stmt_loc e;
    scan_list st loops stmt_loc rest

let rec walk st loops (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e) ->
    scan_reads st loops s.sloc e;
    bump st v
  | Ast.Assign (Ast.Larr (name, subs), e) ->
    record st loops `Write name subs s.sloc ~stmt_loc:s.sloc;
    scan_list st loops s.sloc subs;
    scan_reads st loops s.sloc e
  | Ast.Read v -> bump st v
  | Ast.If (cond, then_, else_) ->
    scan_reads st loops s.sloc cond.lhs;
    scan_reads st loops s.sloc cond.rhs;
    walk_list st loops then_;
    walk_list st loops else_
  | Ast.For f ->
    scan_reads st loops s.sloc f.lo;
    scan_reads st loops s.sloc f.hi;
    (match f.step with Some step -> scan_reads st loops s.sloc step | None -> ());
    let lid = st.next_lid in
    st.next_lid <- st.next_lid + 1;
    (* Bounds are classified relative to the loops enclosing this one. *)
    let lb = to_symexpr st loops f.lo and ub = to_symexpr st loops f.hi in
    let lb, ub =
      match f.step with
      | None -> (lb, ub)
      | Some step -> (
          (* Non-unit steps should have been normalized away; if one
             survives, the variable's range is not contiguous — treat
             the bounds as unknown (sound, not exact). *)
          match Dda_passes.Expr_util.const_value step with
          | Some 1 -> (lb, ub)
          | Some _ | None -> (None, None))
    in
    let assigned = lazy (Dda_passes.Expr_util.assigned_vars f.body) in
    let ctx = { lid; lvar = f.var; lb; ub } in
    walk_list st ((ctx, assigned) :: loops) f.body

and walk_list st loops = function
  | [] -> ()
  | s :: rest ->
    walk st loops s;
    walk_list st loops rest

let extract ?(symbolic = true) prog =
  let rec st =
    {
      symbolic;
      scalars = Hashtbl.create 16;
      next_lid = 0;
      sites = [];
      around = [];
      classify = (fun name -> classify st name);
    }
  in
  walk_list st [] prog;
  List.rev st.sites

let common_loops s1 s2 =
  let rec go n l1 l2 =
    match (l1, l2) with
    | c1 :: r1, c2 :: r2 when c1.lid = c2.lid -> go (n + 1) r1 r2
    | _ -> n
  in
  go 0 s1.loops s2.loops

let loop_table sites =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun s ->
       List.iter
         (fun c ->
            if not (Hashtbl.mem seen c.lid) then begin
              Hashtbl.add seen c.lid ();
              out := (c.lid, c.lvar) :: !out
            end)
         s.loops)
    sites;
  List.sort compare (List.rev !out)
