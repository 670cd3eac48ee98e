open Dda_core

(* The pair's dependences as source-to-sink vectors over its common
   loops; [] means none. *)
let pair_vectors (r : Analyzer.pair_report) =
  List.concat_map
    (fun e -> List.map (fun (rd : Classify.reading) -> rd.dirs) (Classify.readings e))
    (Classify.pair_edges r)

(* Lexicographic non-negativity with "*" treated as possibly ">". *)
let lex_nonneg v =
  match Direction.lead v with
  | Direction.Dlt | Direction.Deq -> true
  | Direction.Dgt | Direction.Dany -> false

(* Does rearranging the loops [ids] keep the pair's dependences?
   [ok positions v] judges one source-to-sink vector, given where each
   of [ids] sits in the pair's common nest. Pairs whose common nest
   contains none of the loops are unaffected; pairs containing only
   some of them cannot be verified and fail conservatively. *)
let pair_holds (r : Analyzer.pair_report) ids ok =
  let positions = List.map (fun id -> List.find_index (Int.equal id) r.common_ids) ids in
  if List.for_all Option.is_none positions then true
  else if List.exists Option.is_none positions then false
  else List.for_all (ok (List.map Option.get positions)) (pair_vectors r)

(* Check every pair against a reordering of [ids] (new outer-to-inner
   order [perm]). *)
let check_permutation (report : Analyzer.report) ids perm =
  List.for_all
    (fun r ->
       pair_holds r ids (fun positions v ->
           (* Slot j (the j-th smallest position) receives the component
              of the loop that the permutation places j-th. *)
           let slots = List.sort compare positions in
           let component_pos_of_id id =
             List.nth positions (Option.get (List.find_index (Int.equal id) ids))
           in
           let v' = Array.copy v in
           List.iteri
             (fun j id -> v'.(List.nth slots j) <- v.(component_pos_of_id id))
             perm;
           lex_nonneg v'))
    report.pair_reports

let reversal_legal (report : Analyzer.report) ~lid =
  (* Reversing flips the component at the loop's position: legal iff no
     vector has its leading non-"=" there, i.e. the loop carries
     nothing. *)
  List.for_all
    (fun r ->
       pair_holds r [ lid ] (fun positions v ->
           let v' = Array.copy v in
           List.iter (fun pos -> v'.(pos) <- Direction.flip v.(pos)) positions;
           lex_nonneg v'))
    report.pair_reports

let interchange_legal report ~lid_a ~lid_b =
  check_permutation report [ lid_a; lid_b ] [ lid_b; lid_a ]

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
         List.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) l)))
      l

let legal_permutations report ids =
  List.filter (fun perm -> check_permutation report ids perm) (permutations ids)

let fully_permutable (report : Analyzer.report) ids =
  List.for_all
    (fun r ->
       pair_holds r ids (fun positions v ->
           let first_band = List.fold_left min max_int positions in
           (* Satisfied outside the band: a definite "<" strictly above
              it. *)
           Direction.lead (Array.sub v 0 first_band) = Direction.Dlt
           || List.for_all
                (fun p ->
                   match v.(p) with
                   | Direction.Dlt | Direction.Deq -> true
                   | Direction.Dgt | Direction.Dany -> false)
                positions))
    report.pair_reports
