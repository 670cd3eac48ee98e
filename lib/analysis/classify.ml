open Dda_core

type edge = {
  pair : Analyzer.pair_report;
  kind : Analyzer.dep_kind;
  vector : Direction.dir array option;
  carried_lids : int list;
  loop_independent : bool;
  exact : bool;
}

(* A conservative verdict has no instance ordering; classify by
   textual order, as {!Analyzer.vector_kind} does for an ambiguous
   leading "*". *)
let textual_kind (r : Analyzer.pair_report) =
  match (r.role1, r.role2) with
  | `Write, `Write -> Analyzer.Output
  | `Write, `Read -> Analyzer.Flow
  | `Read, `Write -> Analyzer.Anti
  | `Read, `Read -> Analyzer.Input

let conservative_edge (r : Analyzer.pair_report) =
  {
    pair = r;
    kind = textual_kind r;
    vector = None;
    carried_lids = r.common_ids;
    loop_independent = true;
    exact = false;
  }

(* The ids of the levels that may carry [v], outermost first: a level
   admitting a difference, every outer level admitting "=". Level [k]
   of [v] is the id at the head of [ids]; the first level that must
   differ carries and ends the walk. *)
let rec carried_ids v k = function
  | [] -> []
  | lid :: rest -> (
      match v.(k) with
      | Direction.Deq -> carried_ids v (k + 1) rest
      | Direction.Dany -> lid :: carried_ids v (k + 1) rest
      | Direction.Dlt | Direction.Dgt -> [ lid ])

let rec loop_independent v k =
  k >= Array.length v
  || (match v.(k) with
      | Direction.Deq | Direction.Dany -> loop_independent v (k + 1)
      | Direction.Dlt | Direction.Dgt -> false)

let vector_edge (r : Analyzer.pair_report) ~exact v =
  { pair = r; kind = Analyzer.vector_kind r v; vector = Some v;
    carried_lids = carried_ids v 0 r.common_ids;
    loop_independent = loop_independent v 0; exact }

let rec vector_edges r ~exact = function
  | [] -> []
  | v :: rest -> vector_edge r ~exact v :: vector_edges r ~exact rest

let pair_edges (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant false | Analyzer.Gcd_independent -> []
  | Analyzer.Constant true | Analyzer.Assumed_dependent ->
    [ conservative_edge r ]
  | Analyzer.Tested t when not t.dependent -> []
  | Analyzer.Tested t ->
    if t.directions = [] then [ conservative_edge r ]
    else vector_edges r ~exact:(Option.is_none t.degraded) t.directions

let edges (report : Analyzer.report) =
  List.concat_map pair_edges report.pair_reports

type reading = {
  forward : bool;
  dirs : Direction.dir array;
}

let readings e =
  let v =
    match e.vector with
    | Some v -> v
    | None -> Array.make e.pair.ncommon Direction.Dany
  in
  let forward = { forward = true; dirs = v } in
  let backward () = { forward = false; dirs = Array.map Direction.flip v } in
  match Direction.lead v with
  | Direction.Dlt | Direction.Deq -> [ forward ]
  | Direction.Dgt -> [ backward () ]
  | Direction.Dany -> [ forward; backward () ]
