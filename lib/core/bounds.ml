open Dda_numeric

type t = {
  los : Ext_int.t array;
  his : Ext_int.t array;
  lo_whys : Cert.deriv option array;
  hi_whys : Cert.deriv option array;
}

let create n =
  {
    los = Array.make n Ext_int.neg_inf;
    his = Array.make n Ext_int.pos_inf;
    lo_whys = Array.make n None;
    hi_whys = Array.make n None;
  }

let copy b =
  {
    los = Array.copy b.los;
    his = Array.copy b.his;
    lo_whys = Array.copy b.lo_whys;
    hi_whys = Array.copy b.hi_whys;
  }

let nvars b = Array.length b.los
let lo b i = b.los.(i)
let hi b i = b.his.(i)
let lo_why b i = b.lo_whys.(i)
let hi_why b i = b.hi_whys.(i)

(* The derivation accompanying a bound is replaced only when the bound
   strictly improves (it justifies the new value, not the old one); on
   a tie it fills a missing derivation but never displaces one. *)
let tighten_lo ?why b i v =
  let v = Ext_int.fin v in
  let c = Ext_int.compare v b.los.(i) in
  if c > 0 then begin
    b.los.(i) <- v;
    b.lo_whys.(i) <- why
  end
  else if c = 0 && b.lo_whys.(i) = None then b.lo_whys.(i) <- why

let tighten_hi ?why b i v =
  let v = Ext_int.fin v in
  let c = Ext_int.compare v b.his.(i) in
  if c < 0 then begin
    b.his.(i) <- v;
    b.hi_whys.(i) <- why
  end
  else if c = 0 && b.hi_whys.(i) = None then b.hi_whys.(i) <- why

let absorb ?why b (r : Consys.row) =
  match Consys.nonzero_vars r with
  | [] -> if Zint.is_negative r.rhs then `False else `Trivial
  | [ i ] ->
    let a = r.coeffs.(i) in
    (* a*t <= b: upper bound floor(b/a) for a > 0, lower bound
       ceil(b/a) for a < 0. Dividing by |a| with a floored bound is
       exactly what [Cert.Tighten] derives, so the stored bound row
       ([t_i <= hi] or [-t_i <= -lo]) follows from the absorbed row. *)
    let why =
      match why with
      | None -> None
      | Some w -> Some (if Zint.is_one (Zint.abs a) then w else Cert.Tighten w)
    in
    if Zint.is_positive a then tighten_hi ?why b i (Zint.fdiv r.rhs a)
    else tighten_lo ?why b i (Zint.cdiv r.rhs a);
    `Absorbed
  | _ :: _ :: _ -> invalid_arg "Bounds.absorb: multi-variable row"

let first_empty b =
  let n = nvars b in
  let rec go i =
    if i >= n then None
    else if Ext_int.compare b.los.(i) b.his.(i) > 0 then Some i
    else go (i + 1)
  in
  go 0

let consistent b = first_empty b = None

let refute_empty b =
  match first_empty b with
  | None -> None
  | Some i -> (
    match (b.lo_whys.(i), b.hi_whys.(i)) with
    | Some lw, Some hw ->
      (* (-t_i <= -lo) + (t_i <= hi) = (0 <= hi - lo), negative here. *)
      Some (Cert.Refute (Cert.Comb [ (Zint.one, lw); (Zint.one, hw) ]))
    | _ ->
      invalid_arg "Bounds.refute_empty: crossing bounds lack provenance")

let sample b =
  if not (consistent b) then None
  else
    Some
      (Array.init (nvars b) (fun i ->
           match (b.los.(i), b.his.(i)) with
           | Ext_int.Fin l, _ -> l
           | Ext_int.Neg_inf, Ext_int.Fin h -> h
           | Ext_int.Neg_inf, _ -> Zint.zero
           | Ext_int.Pos_inf, _ -> assert false))

let pp fmt b =
  Format.fprintf fmt "@[<v>";
  for i = 0 to nvars b - 1 do
    Format.fprintf fmt "%a <= t%d <= %a@," Ext_int.pp b.los.(i) i Ext_int.pp b.his.(i)
  done;
  Format.fprintf fmt "@]"
