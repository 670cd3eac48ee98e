open Dda_lang
open Dda_core

let node_id (loc : Loc.t) = Printf.sprintf "n_%d_%d" loc.line loc.col

(* Conservative edges carry no vector: the outcome names them. *)
let conservative_label (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant _ -> "constant cell"
  | Analyzer.Assumed_dependent -> "assumed (not affine)"
  | Analyzer.Tested _ | Analyzer.Gcd_independent -> "dependent"

let distance_label (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Tested { distance = Some d; _ } ->
    Printf.sprintf " d=(%s)"
      (String.concat "," (Array.to_list (Array.map Dda_numeric.Zint.to_string d)))
  | Analyzer.Tested { distance = None; _ }
  | Analyzer.Constant _ | Analyzer.Assumed_dependent | Analyzer.Gcd_independent -> ""

let to_dot (report : Analyzer.report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dependences {\n";
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  (* Nodes: every site that occurs in some pair. *)
  let nodes = Hashtbl.create 32 in
  let note_node (loc : Loc.t) array role =
    if not (Hashtbl.mem nodes loc) then begin
      Hashtbl.add nodes loc ();
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s %s @ %s\"];\n" (node_id loc) array
           (match role with `Write -> "write" | `Read -> "read")
           (Loc.to_string loc))
    end
  in
  List.iter
    (fun (r : Analyzer.pair_report) ->
       note_node r.loc1 r.array_name r.role1;
       if not r.self_pair then note_node r.loc2 r.array_name r.role2)
    report.pair_reports;
  (* Edges. *)
  let edge src dst label attrs =
    Buffer.add_string buf
      (Printf.sprintf "  %s -> %s [label=\"%s\"%s];\n" (node_id src) (node_id dst)
         label attrs)
  in
  (* Carried (DOALL-blocking) edges are drawn red; loop-independent
     ones keep the default color. A conservative edge may be carried by
     every common loop, so it is red whenever the pair has one. An edge
     read both ways is drawn once, from the first site, with arrowheads
     at both ends. *)
  List.iter
    (fun (e : Classify.edge) ->
       let r = e.pair in
       let color = if e.carried_lids = [] then "" else ", color=red" in
       match e.vector with
       | None ->
         edge r.loc1 r.loc2 (conservative_label r) (", style=dashed, dir=both" ^ color)
       | Some v ->
         let carrier =
           match e.carried_lids with
           | lid :: _ -> Printf.sprintf " carried L%d" lid
           | [] -> " loop-indep"
         in
         let label =
           Printf.sprintf "%s %s%s%s" (Analyzer.dep_kind_name e.kind)
             (Direction.vector_to_string v) (distance_label r) carrier
         in
         match Classify.readings e with
         | [ { forward = true; _ } ] -> edge r.loc1 r.loc2 label color
         | [ { forward = false; _ } ] -> edge r.loc2 r.loc1 label color
         | _ -> edge r.loc1 r.loc2 label (", style=dotted, dir=both" ^ color))
    (Classify.edges report);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
