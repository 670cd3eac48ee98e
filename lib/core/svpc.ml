type outcome =
  | Infeasible of Cert.infeasible
  | Feasible of Bounds.t
  | Partial of Bounds.t * Cert.drow list

exception Row_false of Cert.deriv

let probe =
  Dda_obs.Probe.stage ~span:"svpc" Dda_obs.Attrib.Svpc (function
    | Infeasible _ -> 0
    | Feasible _ -> 1
    | Partial _ -> 2)

let run_inner ?budget (sys : Consys.t) =
  Failpoint.hit "svpc.run";
  (match budget with
   | Some b -> Budget.tick b ~cost:(List.length sys.rows + 1)
   | None -> ());
  let box = Bounds.create sys.nvars in
  match
    let multi = ref [] in
    List.iteri
      (fun i (r : Consys.row) ->
         let why = Cert.Hyp i in
         if Consys.num_vars_used r >= 2 then
           multi := { Cert.row = r; why } :: !multi
         else
           match Bounds.absorb ~why box r with
           | `Absorbed | `Trivial -> ()
           | `False -> raise (Row_false why))
      sys.rows;
    List.rev !multi
  with
  | exception Row_false why -> Infeasible (Cert.Refute why)
  | multi -> (
    match Bounds.refute_empty box with
    | Some cert -> Infeasible cert
    | None -> if multi = [] then Feasible box else Partial (box, multi))

let run ?budget (sys : Consys.t) =
  Dda_obs.Probe.run probe (fun () -> run_inner ?budget sys)
