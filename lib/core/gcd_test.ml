open Dda_numeric
open Dda_linalg

type reduction = {
  nfree : int;
  x_const : Zint.t array;
  x_coeff : Zint.t array array;
  system : Consys.t;
}

type outcome =
  | Independent of Cert.eq_refutation
  | Reduced of reduction

(* Scale the rational refutation vector from the echelon solve into
   integer multipliers plus a modulus: with [y = multipliers / L] and
   [A . y] integral, [sum_j multipliers.(j) * a_ij] is divisible by [L]
   for every variable [i] while [sum_j multipliers.(j) * c_j] is not
   (because [c . y] is not an integer — which also forces [L >= 2]). *)
let refutation_of_y y =
  let l = Array.fold_left (fun acc q -> Zint.lcm acc (Qnum.den q)) Zint.one y in
  assert (Zint.compare l Zint.two >= 0);
  let multipliers =
    Array.map (fun q -> Qnum.to_zint_exn (Qnum.mul q (Qnum.of_zint l))) y
  in
  { Cert.multipliers; modulus = l }

let transform_row red (r : Consys.row) =
  let nv = Array.length red.x_const in
  if Array.length r.coeffs <> nv then invalid_arg "Gcd_test.transform_row: width";
  let coeffs = Array.make red.nfree Zint.zero in
  let const = ref Zint.zero in
  Array.iteri
    (fun i a ->
       if not (Zint.is_zero a) then begin
         const := Zint.add !const (Zint.mul a red.x_const.(i));
         for j = 0 to red.nfree - 1 do
           coeffs.(j) <- Zint.add coeffs.(j) (Zint.mul a red.x_coeff.(i).(j))
         done
       end)
    r.coeffs;
  Consys.normalize_row { Consys.coeffs; rhs = Zint.sub r.rhs !const }

let probe =
  Dda_obs.Probe.stage ~span:"gcd" Dda_obs.Attrib.Gcd (function
    | Independent _ -> 0
    | Reduced _ -> 1)

let run_eqs_inner ?budget (p : Problem.t) =
  Failpoint.hit "gcd.run_eqs";
  let n = Problem.nvars p in
  let eqs = Array.of_list p.eqs in
  let m = Array.length eqs in
  (match budget with
   | Some b -> Budget.tick b ~cost:((n * m) + 1)
   | None -> ());
  if n = 0 then begin
    (* No variables at all (everything canonicalized away): each
       equality is a closed claim [0 = rhs]. *)
    let offender = ref (-1) in
    Array.iteri
      (fun j (r : Consys.row) ->
         if !offender < 0 && not (Zint.is_zero r.rhs) then offender := j)
      eqs;
    if !offender < 0 then
      Reduced
        {
          nfree = 0;
          x_const = [||];
          x_coeff = [||];
          system = Consys.make ~nvars:0 [];
        }
    else begin
      (* [0 = rhs] with rhs <> 0: multiplier 1 on that equation and any
         modulus exceeding |rhs| refutes it. *)
      let multipliers = Array.make m Zint.zero in
      multipliers.(!offender) <- Zint.one;
      Independent
        { Cert.multipliers; modulus = Zint.succ (Zint.abs eqs.(!offender).rhs) }
    end
  end
  else if m = 0 then
    (* No subscript equations (rank-0 corner cases): every variable is
       its own free parameter. *)
    Reduced
      {
        nfree = n;
        x_const = Array.make n Zint.zero;
        x_coeff =
          Array.init n (fun i ->
              Array.init n (fun j -> if i = j then Zint.one else Zint.zero));
        system = Consys.make ~nvars:n [];
      }
  else begin
    (* x . A = c with A an n x m matrix. *)
    let a = Array.init n (fun i -> Array.init m (fun j -> eqs.(j).Consys.coeffs.(i))) in
    let c = Array.init m (fun j -> eqs.(j).Consys.rhs) in
    let { Matrix.u; d; rank; _ } = Matrix.unimodular_factor a in
    match Matrix.solve_echelon ~d ~c with
    | None ->
      let y =
        match Matrix.echelon_refutation ~d ~c with
        | Some y -> y
        | None -> assert false (* solve failed, so a refutation exists *)
      in
      Independent (refutation_of_y y)
    | Some { Matrix.fixed; nfree } ->
      (* x = t . U; t = (fixed_0 .. fixed_{rank-1}, free parameters). *)
      let x_const =
        Array.init n (fun i ->
            let acc = ref Zint.zero in
            for k = 0 to rank - 1 do
              acc := Zint.add !acc (Zint.mul fixed.(k) u.(k).(i))
            done;
            !acc)
      in
      let x_coeff = Array.init n (fun i -> Array.init nfree (fun j -> u.(rank + j).(i))) in
      Reduced { nfree; x_const; x_coeff; system = Consys.make ~nvars:nfree [] }
  end

let run_eqs ?budget (p : Problem.t) =
  Dda_obs.Probe.run probe (fun () -> run_eqs_inner ?budget p)

let attach_bounds (p : Problem.t) red =
  let rows = List.map (transform_row red) (Problem.ineq_rows p) in
  { red with system = Consys.make ~nvars:red.nfree rows }

let run ?budget p =
  match run_eqs ?budget p with
  | Independent _ as i -> i
  | Reduced red -> Reduced (attach_bounds p red)

let x_of_t red t =
  if Array.length t <> red.nfree then invalid_arg "Gcd_test.x_of_t: width";
  Array.mapi
    (fun i x0 ->
       let acc = ref x0 in
       for j = 0 to red.nfree - 1 do
         acc := Zint.add !acc (Zint.mul red.x_coeff.(i).(j) t.(j))
       done;
       !acc)
    red.x_const

let delta red p q =
  let rec same j =
    j >= red.nfree
    || (Zint.equal red.x_coeff.(p).(j) red.x_coeff.(q).(j) && same (j + 1))
  in
  if same 0 then Some (Zint.sub red.x_const.(p) red.x_const.(q)) else None
