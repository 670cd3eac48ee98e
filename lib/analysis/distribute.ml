open Dda_lang
open Dda_core

type group = {
  stmts : Loc.t list;
  parallel : bool;
}

type plan = {
  lid : int;
  groups : group list;
}

(* ------------------------------------------------------------------ *)
(* Dependence edges among body statements, relative to one loop level  *)
(* ------------------------------------------------------------------ *)

type edge = {
  src : Loc.t;
  dst : Loc.t;
  carried : bool;
}

(* The statement edges of one dependence edge at loop [lid]'s level:
   one per reading, unless an outer loop already satisfies it (a
   definite "<" or ">" above [pos], the loop's index in the pair's
   common nest). *)
let stmt_edges ~lid (e : Classify.edge) =
  let r = e.pair in
  match List.find_index (Int.equal lid) r.common_ids with
  | None -> []
  | Some pos ->
    let relevant v =
      let rec outer j =
        j >= pos || (v.(j) <> Direction.Dlt && v.(j) <> Direction.Dgt && outer (j + 1))
      in
      outer 0
    in
    let stmt_edge (rd : Classify.reading) =
      let loop_independent = Direction.lead rd.dirs = Direction.Deq in
      (* Within one iteration, statement order decides. *)
      let forward =
        if loop_independent then Loc.compare r.stmt1 r.stmt2 <= 0 else rd.forward
      in
      let src, dst = if forward then (r.stmt1, r.stmt2) else (r.stmt2, r.stmt1) in
      (* A statement against itself in one iteration constrains
         nothing. *)
      if (loop_independent && Loc.equal src dst) || not (relevant rd.dirs) then None
      else Some { src; dst; carried = rd.dirs.(pos) <> Direction.Deq }
    in
    List.filter_map stmt_edge (Classify.readings e)

(* ------------------------------------------------------------------ *)
(* Tarjan SCC + topological ordering of the condensation               *)
(* ------------------------------------------------------------------ *)

let sccs nodes succ =
  let n = Array.length nodes in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           strongconnect w;
           lowlink.(v) <- min lowlink.(v) lowlink.(w)
         end
         else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succ v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !components

let plan_loop (report : Analyzer.report) ~lid ~stmts =
  let nodes = Array.of_list stmts in
  let n = Array.length nodes in
  let node_of = Hashtbl.create 8 in
  Array.iteri (fun i loc -> Hashtbl.replace node_of loc i) nodes;
  let edges =
    List.concat_map (stmt_edges ~lid) (Classify.edges report)
    |> List.filter_map (fun e ->
        match (Hashtbl.find_opt node_of e.src, Hashtbl.find_opt node_of e.dst) with
        | Some s, Some d -> Some (s, d, e.carried)
        | _ -> None)
  in
  let succ v = List.filter_map (fun (s, d, _) -> if s = v then Some d else None) edges in
  let comps = sccs nodes succ in
  (* Topological order of the condensation (Kahn), preferring the
     textually earliest component on ties for determinism. *)
  let comp_of = Array.make n (-1) in
  let comps = Array.of_list comps in
  Array.iteri (fun ci members -> List.iter (fun v -> comp_of.(v) <- ci) members) comps;
  let nc = Array.length comps in
  let indeg = Array.make nc 0 in
  let comp_edges = Hashtbl.create 16 in
  List.iter
    (fun (s, d, _) ->
       let cs = comp_of.(s) and cd = comp_of.(d) in
       if cs <> cd && not (Hashtbl.mem comp_edges (cs, cd)) then begin
         Hashtbl.replace comp_edges (cs, cd) ();
         indeg.(cd) <- indeg.(cd) + 1
       end)
    edges;
  let first_pos ci = List.fold_left (fun acc v -> min acc v) max_int comps.(ci) in
  let order = ref [] in
  let remaining = ref (List.init nc Fun.id) in
  let done_ = Array.make nc false in
  while !remaining <> [] do
    let ready = List.filter (fun ci -> indeg.(ci) = 0) !remaining in
    let pick =
      match ready with
      | [] ->
        (* Cannot happen: the condensation is acyclic. *)
        List.hd !remaining
      | _ -> List.fold_left (fun a b -> if first_pos b < first_pos a then b else a) (List.hd ready) ready
    in
    order := pick :: !order;
    done_.(pick) <- true;
    remaining := List.filter (fun ci -> ci <> pick) !remaining;
    Hashtbl.iter
      (fun (cs, cd) () -> if cs = pick && not done_.(cd) then indeg.(cd) <- indeg.(cd) - 1)
      comp_edges
  done;
  let groups =
    List.rev_map
      (fun ci ->
         let members = List.sort compare comps.(ci) in
         let in_comp v = comp_of.(v) = ci in
         let parallel =
           not (List.exists (fun (s, d, carried) -> carried && in_comp s && in_comp d) edges)
         in
         { stmts = List.map (fun v -> nodes.(v)) members; parallel })
      !order
  in
  { lid; groups }

(* ------------------------------------------------------------------ *)
(* Locating and rewriting the loop in the AST                          *)
(* ------------------------------------------------------------------ *)

let find_loop prog ~lid =
  List.find_opt (fun (m : Summary.loop_meta) -> m.m_lid = lid) (Summary.loop_metas prog)

let array_assignments body =
  let ok =
    List.for_all
      (fun (s : Ast.stmt) ->
         match s.sdesc with Ast.Assign (Ast.Larr _, _) -> true | _ -> false)
      body
  in
  if ok then Some (List.map (fun (s : Ast.stmt) -> s.Ast.sloc) body) else None

let body_stmts prog ~lid =
  match find_loop prog ~lid with
  | None -> None
  | Some m -> array_assignments m.m_for.body

let apply prog (plan : plan) =
  match find_loop prog ~lid:plan.lid with
  | None -> None
  | Some { m_loc = loop_loc; m_for = f; _ } -> (
      match array_assignments f.body with
      | None -> None
      | Some _
        when not
               (Dda_passes.Expr_util.is_pure_scalar f.lo
                && Dda_passes.Expr_util.is_pure_scalar f.hi) -> None
      | Some _ ->
        let stmt_at loc =
          List.find (fun (s : Ast.stmt) -> Loc.equal s.Ast.sloc loc) f.body
        in
        let replacement =
          List.map
            (fun g ->
               (* Each copy needs its own identity; borrow the first
                  member's location. *)
               {
                 Ast.sdesc = Ast.For { f with body = List.map stmt_at g.stmts };
                 sloc = (match g.stmts with l :: _ -> l | [] -> loop_loc);
               })
            plan.groups
        in
        (* Replace the loop statement (by location) wherever it sits. *)
        let rec rewrite (s : Ast.stmt) =
          if Loc.equal s.Ast.sloc loop_loc then replacement
          else
            match s.sdesc with
            | Ast.Assign _ | Ast.Read _ -> [ s ]
            | Ast.If (c, t, e) ->
              [ { s with sdesc = Ast.If (c, List.concat_map rewrite t, List.concat_map rewrite e) } ]
            | Ast.For f' ->
              [ { s with sdesc = Ast.For { f' with body = List.concat_map rewrite f'.body } } ]
        in
        Some (List.concat_map rewrite prog))
