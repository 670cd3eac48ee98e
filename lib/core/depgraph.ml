open Dda_lang

let node_id (loc : Loc.t) = Printf.sprintf "n_%d_%d" loc.line loc.col

(* Which endpoint is the source: the instance executing first. *)
let source_of v =
  let rec go k =
    if k >= Array.length v then `First (* loop-independent: textual order *)
    else
      match v.(k) with
      | Direction.Deq -> go (k + 1)
      | Direction.Dlt -> `First
      | Direction.Dgt -> `Second
      | Direction.Dany -> `Ambiguous
  in
  go 0

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
     ones keep the default color. Conservative outcomes block every
     common loop, so they are red whenever the pair has one. *)
  let blocking_attrs r =
    if r.Analyzer.ncommon > 0 then ", color=red" else ""
  in
  List.iter
    (fun (r : Analyzer.pair_report) ->
       match r.outcome with
       | Analyzer.Constant false | Analyzer.Gcd_independent -> ()
       | Analyzer.Constant true ->
         edge r.loc1 r.loc2 "constant cell"
           (", style=dashed, dir=both" ^ blocking_attrs r)
       | Analyzer.Assumed_dependent ->
         edge r.loc1 r.loc2 "assumed (not affine)"
           (", style=dashed, dir=both" ^ blocking_attrs r)
       | Analyzer.Tested t when not t.dependent -> ()
       | Analyzer.Tested t ->
         if t.directions = [] then
           edge r.loc1 r.loc2 "dependent"
             (", style=dashed, dir=both" ^ blocking_attrs r)
         else
           List.iter
             (fun v ->
                let kind =
                  Analyzer.dep_kind_name (Analyzer.vector_kind r v)
                in
                let dist =
                  match t.distance with
                  | Some d ->
                    Printf.sprintf " d=(%s)"
                      (String.concat ","
                         (Array.to_list (Array.map Dda_numeric.Zint.to_string d)))
                  | None -> ""
                in
                let carrier, color =
                  match Analyzer.vector_carrier v with
                  | Some k ->
                    (Printf.sprintf " carried L%d" (List.nth r.common_ids k),
                     ", color=red")
                  | None -> (" loop-indep", "")
                in
                let label =
                  Printf.sprintf "%s %s%s%s" kind
                    (Direction.vector_to_string v) dist carrier
                in
                match source_of v with
                | `First -> edge r.loc1 r.loc2 label color
                | `Second -> edge r.loc2 r.loc1 label color
                | `Ambiguous ->
                  edge r.loc1 r.loc2 label (", style=dotted, dir=both" ^ color))
             t.directions)
    report.pair_reports;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
