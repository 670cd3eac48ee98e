open Dda_numeric

type elim =
  | Pinned of {
      var : int;
      value : Zint.t;
    }
  | Discharged of {
      var : int;
      upper : bool;
      rows : Cert.drow list;
    }

type outcome =
  | Infeasible of Cert.infeasible
  | Feasible of Bounds.t * elim list
  | Cycle of Bounds.t * elim list * Cert.drow list

(* Sign usage of every variable across the multi-variable rows. *)
let sign_usage nvars rows =
  let pos = Array.make nvars false and neg = Array.make nvars false in
  List.iter
    (fun (dr : Cert.drow) ->
       Array.iteri
         (fun i c ->
            if Zint.is_positive c then pos.(i) <- true
            else if Zint.is_negative c then neg.(i) <- true)
         dr.row.coeffs)
    rows;
  (pos, neg)

(* Substitute t_i := v in every row that mentions it; re-classify the
   results. [bound_why] derives the binding bound row ([-t_i <= -v]
   when pinning to the lower bound, [t_i <= v] to the upper): adding it
   |a| times to a row with coefficient [a] on t_i cancels the variable
   and yields exactly the substituted row, so provenance follows the
   rewriting for free. Returns the surviving multi-variable rows, or a
   refutation on a contradiction. *)
let substitute box i v bound_why rows =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ({ Cert.row = r; why } as dr) :: rest ->
      if Zint.is_zero r.coeffs.(i) then go (dr :: acc) rest
      else begin
        let coeffs = Array.copy r.coeffs in
        let a = coeffs.(i) in
        coeffs.(i) <- Zint.zero;
        let r' = { Consys.coeffs; rhs = Zint.sub r.rhs (Zint.mul a v) } in
        let why' = Cert.Comb [ (Zint.one, why); (Zint.abs a, bound_why) ] in
        if Consys.num_vars_used r' >= 2 then
          go ({ Cert.row = r'; why = why' } :: acc) rest
        else
          match Bounds.absorb ~why:why' box r' with
          | `Absorbed | `Trivial -> go acc rest
          | `False -> Error (Cert.Refute why')
      end
  in
  go [] rows

let probe =
  Dda_obs.Probe.stage ~span:"acyclic" Dda_obs.Attrib.Acyclic (function
    | Infeasible _ -> 0
    | Feasible _ -> 1
    | Cycle _ -> 2)

let run_inner ?budget box rows =
  Failpoint.hit "acyclic.run";
  let tick cost = match budget with Some b -> Budget.tick b ~cost | None -> () in
  let box = Bounds.copy box in
  let nvars = Bounds.nvars box in
  let rec loop rows elims =
    tick (List.length rows + 1);
    match Bounds.refute_empty box with
    | Some cert -> Infeasible cert
    | None ->
      if rows = [] then Feasible (box, List.rev elims)
      else begin
        let pos, neg = sign_usage nvars rows in
        (* A variable used with a single sign is constrained in only one
           direction by the rows: pin it to the opposite extreme of its
           box (or discharge the rows if that extreme is infinite). *)
        let candidate = ref None in
        for i = nvars - 1 downto 0 do
          if pos.(i) && not neg.(i) then candidate := Some (i, `Upper_only)
          else if neg.(i) && not pos.(i) then candidate := Some (i, `Lower_only)
        done;
        match !candidate with
        | None -> Cycle (box, List.rev elims, rows)
        | Some (i, dir) -> (
            let extreme, why =
              match dir with
              | `Upper_only ->
                (Bounds.lo box i, Bounds.lo_why box i)
                (* rows only cap it from above *)
              | `Lower_only -> (Bounds.hi box i, Bounds.hi_why box i)
            in
            match extreme with
            | Ext_int.Fin v -> (
                let why =
                  match why with
                  | Some w -> w
                  | None -> invalid_arg "Acyclic.run: bound lacks provenance"
                in
                match substitute box i v why rows with
                | Error cert -> Infeasible cert
                | Ok rows' -> loop rows' (Pinned { var = i; value = v } :: elims))
            | Ext_int.Neg_inf | Ext_int.Pos_inf ->
              (* Unbounded in the helpful direction: every row mentioning
                 t_i is satisfiable regardless of the other variables. *)
              let mentions (dr : Cert.drow) = not (Zint.is_zero dr.row.coeffs.(i)) in
              let dropped, rows' = List.partition mentions rows in
              loop rows'
                (Discharged { var = i; upper = (dir = `Upper_only); rows = dropped }
                 :: elims))
      end
  in
  loop rows []

let run ?budget box rows =
  Dda_obs.Probe.run probe (fun () -> run_inner ?budget box rows)

let witness elims base =
  let x = Array.copy base in
  (* Later-eliminated variables were assigned knowing nothing about the
     earlier ones (their coefficients were already gone), so replay the
     eliminations backwards: by the time a variable is (re)assigned,
     every other variable its recorded rows mention is final. *)
  List.iter
    (function
      | Pinned { var; value } -> x.(var) <- value
      | Discharged { var; upper; rows } ->
        let v = ref x.(var) in
        List.iter
          (fun (dr : Cert.drow) ->
             let r = dr.Cert.row in
             let a = r.coeffs.(var) in
             let rest = ref Zint.zero in
             Array.iteri
               (fun j c ->
                  if j <> var && not (Zint.is_zero c) then
                    rest := Zint.add !rest (Zint.mul c x.(j)))
               r.coeffs;
             let slack = Zint.sub r.rhs !rest in
             (* a * t_var <= slack: an upper bound when a > 0, a lower
                bound when a < 0; the variable is free on its other
                side, so clamping the base value satisfies the row
                without leaving the box. *)
             if upper then v := Zint.min !v (Zint.fdiv slack a)
             else v := Zint.max !v (Zint.cdiv slack a))
          rows;
        x.(var) <- !v)
    (List.rev elims);
  x
