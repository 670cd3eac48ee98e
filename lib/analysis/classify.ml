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

(* Level [k] may carry [v]: it admits a difference there, and every
   outer level admits "=". *)
let carries_at v k =
  let outer_may_eq j = match v.(j) with Direction.Deq | Direction.Dany -> true | Direction.Dlt | Direction.Dgt -> false in
  let rec outers j = j >= k || (outer_may_eq j && outers (j + 1)) in
  (match v.(k) with Direction.Deq -> false | Direction.Dlt | Direction.Dgt | Direction.Dany -> true)
  && outers 0

let vector_edge (r : Analyzer.pair_report) ~exact v =
  let carried_lids = List.filteri (fun k _ -> carries_at v k) r.common_ids in
  let loop_independent =
    Array.for_all
      (function Direction.Deq | Direction.Dany -> true
              | Direction.Dlt | Direction.Dgt -> false)
      v
  in
  { pair = r; kind = Analyzer.vector_kind r v; vector = Some v;
    carried_lids; loop_independent; exact }

let pair_edges (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant false | Analyzer.Gcd_independent -> []
  | Analyzer.Constant true | Analyzer.Assumed_dependent ->
    [ conservative_edge r ]
  | Analyzer.Tested t when not t.dependent -> []
  | Analyzer.Tested t ->
    if t.directions = [] then [ conservative_edge r ]
    else
      let exact = Option.is_none t.degraded in
      List.map (vector_edge r ~exact) t.directions

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
