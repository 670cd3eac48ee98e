type direction =
  | Lt
  | Eq
  | Gt

let compare_direction a b =
  let rank = function Lt -> 0 | Eq -> 1 | Gt -> 2 in
  Stdlib.compare (rank a) (rank b)

type observation = {
  dependent : bool;
  directions : direction list list;
  distances : int list list;
}

let common_loops (a : Interp.access) (b : Interp.access) =
  let rec go (xs : Interp.frame list) (ys : Interp.frame list) =
    match (xs, ys) with
    | x :: xs', y :: ys' when String.equal x.var y.var -> x.var :: go xs' ys'
    | _ -> []
  in
  go (List.rev a.frames) (List.rev b.frames)

let sort_uniq_vectors cmp vectors = List.sort_uniq (List.compare cmp) vectors

(* One execution, indexed for pair queries: each site's accesses by
   cell, built on the first query that names the site. *)
type cells = (string * int list, Interp.access list) Hashtbl.t

type run = {
  by_site : (Loc.t, Interp.access list) Hashtbl.t;  (* latest first *)
  cells : (Loc.t, cells) Hashtbl.t;
}

let execute ?fuel ?inputs prog =
  let by_site = Hashtbl.create 64 in
  Interp.iter ?fuel ?inputs
    (fun (a : Interp.access) ->
       if a.indices <> [] then
         let prev = Option.value ~default:[] (Hashtbl.find_opt by_site a.site) in
         Hashtbl.replace by_site a.site (a :: prev))
    prog;
  { by_site; cells = Hashtbl.create 64 }

let accesses run site = Option.value ~default:[] (Hashtbl.find_opt run.by_site site)

let cells run site =
  match Hashtbl.find_opt run.cells site with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 64 in
    List.iter
      (fun (a : Interp.access) ->
         let key = (a.array, a.indices) in
         let prev = Option.value ~default:[] (Hashtbl.find_opt t key) in
         Hashtbl.replace t key (a :: prev))
      (accesses run site);
    Hashtbl.replace run.cells site t;
    t

let matches run site (a : Interp.access) =
  Option.value ~default:[] (Hashtbl.find_opt (cells run site) (a.array, a.indices))

(* A site's access is one execution of its statement, so a cell holds
   two distinct instances of one site exactly when it holds two of its
   accesses. *)
let dependent_in run ~site1 ~site2 =
  if Loc.equal site1 site2 then
    Hashtbl.fold (fun _ l dep -> dep || List.compare_length_with l 1 > 0) (cells run site1) false
  else List.exists (fun a2 -> matches run site1 a2 <> []) (accesses run site2)

let observe_in run ~site1 ~site2 =
  let self = Loc.equal site1 site2 in
  let directions = Hashtbl.create 8 and distances = Hashtbl.create 8 in
  List.iter
    (fun (a2 : Interp.access) ->
       List.iter
         (fun (a1 : Interp.access) ->
            if not (self && a1.time = a2.time) then begin
              let common = common_loops a1 a2 in
              let n = List.length common in
              let vals (a : Interp.access) =
                List.rev a.frames
                |> List.filteri (fun i _ -> i < n)
                |> List.map (fun (f : Interp.frame) -> f.value)
              in
              let v1 = vals a1 and v2 = vals a2 in
              let dir =
                List.map2
                  (fun x y -> if x < y then Lt else if x = y then Eq else Gt)
                  v1 v2
              in
              Hashtbl.replace directions dir ();
              Hashtbl.replace distances (List.map2 (fun x y -> y - x) v1 v2) ()
            end)
         (matches run site1 a2))
    (accesses run site2);
  let keys t = Hashtbl.fold (fun k () acc -> k :: acc) t [] in
  {
    dependent = Hashtbl.length directions > 0;
    directions = sort_uniq_vectors compare_direction (keys directions);
    distances = sort_uniq_vectors Stdlib.compare (keys distances);
  }

let observe ?fuel ?inputs prog ~site1 ~site2 =
  observe_in (execute ?fuel ?inputs prog) ~site1 ~site2

let all_site_pairs prog =
  let refs = Ast.array_refs prog in
  let arr = Array.of_list refs in
  let out = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i to Array.length arr - 1 do
      let name1, _, role1, loc1 = arr.(i) in
      let name2, _, role2, loc2 = arr.(j) in
      if String.equal name1 name2 && (role1 = `Write || role2 = `Write) then
        out := (loc1, loc2, name1) :: !out
    done
  done;
  List.rev !out
