open Dda_numeric

type outcome =
  | Infeasible of Cert.infeasible
  | Feasible of Zint.t array

let two_var_form (r : Consys.row) =
  match Consys.nonzero_vars r with
  | [ i; j ] ->
    let ai = r.coeffs.(i) and aj = r.coeffs.(j) in
    if Zint.equal ai (Zint.neg aj) then
      (* a*(t_p - t_n) <= rhs with a > 0 *)
      let p, n, a = if Zint.is_positive ai then (i, j, ai) else (j, i, aj) in
      Some (p, n, a)
    else None
  | _ -> None

let applicable rows =
  List.for_all
    (fun (r : Consys.row) ->
       match Consys.num_vars_used r with
       | 0 | 1 -> true
       | 2 -> two_var_form r <> None
       | _ -> false)
    rows

(* Edges (src, dst, w, why) encode x_dst - x_src <= w; node [nvars] is
   the paper's special node n0 anchoring single-variable constraints
   (read as the constant 0, so every edge's inequality is literally a
   row of the system — tightened by the coefficient when it is not a
   unit — and [why] derives that row). *)
let edges_of box rows =
  let nvars = Bounds.nvars box in
  let n0 = nvars in
  let edges = ref [] in
  let add src dst w why = edges := (src, dst, w, why) :: !edges in
  let constant_false = ref None in
  List.iter
    (fun ({ Cert.row = r; why } : Cert.drow) ->
       let tightened a = if Zint.is_one (Zint.abs a) then why else Cert.Tighten why in
       match Consys.nonzero_vars r with
       | [] -> if Zint.is_negative r.rhs then constant_false := Some why
       | [ i ] ->
         let a = r.coeffs.(i) in
         if Zint.is_positive a then add n0 i (Zint.fdiv r.rhs a) (Some (tightened a))
         else add i n0 (Zint.neg (Zint.cdiv r.rhs a)) (Some (tightened a))
       | _ -> (
           match two_var_form r with
           | Some (p, n, a) -> add n p (Zint.fdiv r.rhs a) (Some (tightened a))
           | None -> invalid_arg "Loop_residue: inapplicable row"))
    rows;
  for i = 0 to nvars - 1 do
    (match Bounds.hi box i with
     | Ext_int.Fin h -> add n0 i h (Bounds.hi_why box i)
     | Ext_int.Neg_inf | Ext_int.Pos_inf -> ());
    match Bounds.lo box i with
    | Ext_int.Fin l -> add i n0 (Zint.neg l) (Bounds.lo_why box i)
    | Ext_int.Neg_inf | Ext_int.Pos_inf -> ()
  done;
  (!edges, !constant_false)

(* Every edge of a cycle derives a row [x_dst - x_src <= w]; around a
   cycle each vertex occurs as often as source and as destination, so
   the unit-multiplier sum of those rows is variable-free with
   right-hand side the (negative) cycle weight. *)
let cycle_cert cycle =
  let terms =
    List.map
      (fun (_, _, _, why) ->
         match why with
         | Some w -> (Zint.one, w)
         | None -> invalid_arg "Loop_residue: cycle edge lacks provenance")
      cycle
  in
  let weight =
    List.fold_left (fun acc (_, _, w, _) -> Zint.add acc w) Zint.zero cycle
  in
  assert (Zint.is_negative weight);
  Cert.Refute (Cert.Comb terms)

let probe =
  Dda_obs.Probe.stage ~span:"loop-residue" Dda_obs.Attrib.Loop_residue (function
    | Some (Infeasible _) -> 0
    | Some (Feasible _) -> 1
    | None -> 2)

let run_inner ?budget box rows =
  Failpoint.hit "loop_residue.run";
  let tick cost = match budget with Some b -> Budget.tick b ~cost | None -> () in
  if not (applicable (List.map (fun (dr : Cert.drow) -> dr.row) rows)) then None
  else begin
    let nvars = Bounds.nvars box in
    let edges, constant_false = edges_of box rows in
    match constant_false with
    | Some why -> Some (Infeasible (Cert.Refute why))
    | None ->
      (* Bellman-Ford from a virtual source connected to every node with
         weight 0 (equivalently: all distances start at 0). *)
      let n = nvars + 1 in
      let dist = Array.make n Zint.zero in
      let pred = Array.make n None in
      let relax_pass () =
        tick (List.length edges + 1);
        let changed = ref None in
        List.iter
          (fun ((src, dst, w, _) as e) ->
             let cand = Zint.add dist.(src) w in
             if Zint.compare cand dist.(dst) < 0 then begin
               dist.(dst) <- cand;
               pred.(dst) <- Some e;
               changed := Some dst
             end)
          edges;
        !changed
      in
      (* n passes converge for n nodes; an improving (n+1)-th pass
         witnesses a negative cycle. *)
      for _ = 1 to n do
        ignore (relax_pass ())
      done;
      (match relax_pass () with
       | Some v ->
         (* A vertex improved after convergence should have: its
            predecessor chain is at least n+1 edges long, so walking it
            revisits a vertex, and any cycle in the predecessor graph
            has negative weight (each relaxation strictly decreased a
            distance along it). *)
         let visited = Array.make n false in
         let rec find_on_cycle u =
           if visited.(u) then u
           else begin
             visited.(u) <- true;
             match pred.(u) with
             | Some (src, _, _, _) -> find_on_cycle src
             | None -> assert false
           end
         in
         let start = find_on_cycle v in
         let rec collect u acc =
           match pred.(u) with
           | Some ((src, _, _, _) as e) ->
             let acc = e :: acc in
             if src = start then acc else collect src acc
           | None -> assert false
         in
         Some (Infeasible (cycle_cert (collect start [])))
       | None ->
         let d0 = dist.(nvars) in
         Some (Feasible (Array.init nvars (fun i -> Zint.sub dist.(i) d0))))
  end

let run ?budget box rows =
  Dda_obs.Probe.run probe (fun () -> run_inner ?budget box rows)

let to_dot box rows =
  let nvars = Bounds.nvars box in
  let edges, _ = edges_of box rows in
  let name i = if i = nvars then "n0" else Printf.sprintf "t%d" i in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph loop_residue {\n";
  List.iter
    (fun (src, dst, w, _) ->
       Buffer.add_string buf
         (Printf.sprintf "  %s -> %s [label=\"%s\"];\n" (name src) (name dst)
            (Zint.to_string w)))
    (List.rev edges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
