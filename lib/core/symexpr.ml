open Dda_numeric

module Vm = Map.Make (String)

(* Canonical: no zero coefficients stored. *)
type t = {
  coeffs : Zint.t Vm.t;
  const : Zint.t;
}

let const c = { coeffs = Vm.empty; const = c }
let of_int n = const (Zint.of_int n)
let zero = const Zint.zero
let var v = { coeffs = Vm.singleton v Zint.one; const = Zint.zero }

let put v c m = if Zint.is_zero c then Vm.remove v m else Vm.add v c m

let add a b =
  {
    coeffs =
      Vm.union (fun _ x y -> let s = Zint.add x y in if Zint.is_zero s then None else Some s)
        a.coeffs b.coeffs;
    const = Zint.add a.const b.const;
  }

let neg a = { coeffs = Vm.map Zint.neg a.coeffs; const = Zint.neg a.const }
let sub a b = add a (neg b)

let scale k a =
  if Zint.is_zero k then zero
  else { coeffs = Vm.map (Zint.mul k) a.coeffs; const = Zint.mul k a.const }

let is_const a = Vm.is_empty a.coeffs
let to_const a = if is_const a then Some a.const else None

let mul a b =
  match (to_const a, to_const b) with
  | Some ka, _ -> Some (scale ka b)
  | _, Some kb -> Some (scale kb a)
  | None, None -> None

let div_exact a k =
  if Zint.is_zero k then None
  else if Vm.for_all (fun _ c -> Zint.divides k c) a.coeffs && Zint.divides k a.const
  then
    Some
      {
        coeffs = Vm.map (fun c -> Zint.divexact c k) a.coeffs;
        const = Zint.divexact a.const k;
      }
  else None

let coeff a v = match Vm.find_opt v a.coeffs with Some c -> c | None -> Zint.zero
let const_part a = a.const
let vars a = Vm.bindings a.coeffs |> List.map fst
let iter f a = Vm.iter f a.coeffs
let exists_var p a = Vm.exists (fun v _ -> p v) a.coeffs

let eval lookup a =
  Vm.fold (fun v c acc -> Zint.add acc (Zint.mul c (lookup v))) a.coeffs a.const

let subst v e t =
  let c = coeff t v in
  if Zint.is_zero c then t
  else add { t with coeffs = Vm.remove v t.coeffs } (scale c e)

let equal a b = Zint.equal a.const b.const && Vm.equal Zint.equal a.coeffs b.coeffs

let compare a b =
  match Zint.compare a.const b.const with
  | 0 -> Vm.compare Zint.compare a.coeffs b.coeffs
  | c -> c

let pp fmt a =
  let terms = Vm.bindings a.coeffs in
  if terms = [] then Zint.pp fmt a.const
  else begin
    let first = ref true in
    List.iter
      (fun (v, c) ->
         if !first then begin
           first := false;
           if Zint.is_one c then Format.pp_print_string fmt v
           else if Zint.equal c Zint.minus_one then Format.fprintf fmt "-%s" v
           else Format.fprintf fmt "%a%s" Zint.pp c v
         end
         else if Zint.is_negative c then
           if Zint.equal c Zint.minus_one then Format.fprintf fmt " - %s" v
           else Format.fprintf fmt " - %a%s" Zint.pp (Zint.neg c) v
         else if Zint.is_one c then Format.fprintf fmt " + %s" v
         else Format.fprintf fmt " + %a%s" Zint.pp c v)
      terms;
    if Zint.is_negative a.const then Format.fprintf fmt " - %a" Zint.pp (Zint.neg a.const)
    else if not (Zint.is_zero a.const) then Format.fprintf fmt " + %a" Zint.pp a.const
  end

(* [of_ast] in one walk: [k * e] is added into an accumulator, [k]
   carrying the signs and literal factors met on the way down, so a
   subscript such as [2*i - j + n] builds no form per node. Only a
   product or quotient that is not by a literal converts its operands
   on their own, to learn which one is constant or whether the
   division is exact. Small coefficients come from [Zint]'s shared
   cache, so the walk allocates little beyond the result's map. *)
type acc = {
  mutable terms : Zint.t Vm.t;
  mutable c : Zint.t;
}

let add_term acc v k =
  acc.terms <- put v (if Vm.mem v acc.terms then Zint.add (Vm.find v acc.terms) k else k) acc.terms

let add_scaled acc k a =
  Vm.iter (fun v c -> add_term acc v (Zint.mul k c)) a.coeffs;
  acc.c <- Zint.add acc.c (Zint.mul k a.const)

let rec lin classify acc k (e : Dda_lang.Ast.expr) =
  match e.desc with
  | Dda_lang.Ast.Int n ->
    acc.c <- Zint.add acc.c (Zint.mul_int k n);
    true
  | Dda_lang.Ast.Var v -> (
      match classify v with
      | "" -> false
      | name ->
        add_term acc name k;
        true)
  | Dda_lang.Ast.Neg a -> lin classify acc (Zint.neg k) a
  | Dda_lang.Ast.Aref _ -> false
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Add, a, b) -> lin classify acc k a && lin classify acc k b
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Sub, a, b) ->
    lin classify acc k a && lin classify acc (Zint.neg k) b
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Mul, a, { desc = Dda_lang.Ast.Int n; _ }) ->
    lin classify acc (Zint.mul_int k n) a
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Mul, { desc = Dda_lang.Ast.Int n; _ }, b) ->
    lin classify acc (Zint.mul_int k n) b
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Mul, a, b) -> (
      match (of_ast ~classify a, of_ast ~classify b) with
      | Some ea, Some eb -> (
          match mul ea eb with
          | Some p ->
            add_scaled acc k p;
            true
          | None -> false)
      | _ -> false)
  | Dda_lang.Ast.Bin (Dda_lang.Ast.Div, a, b) -> (
      (* Only exact division by a constant keeps the expression affine
         with the language's truncating semantics. *)
      match of_ast ~classify b with
      | None -> false
      | Some eb -> (
          match to_const eb with
          | Some d when not (Zint.is_zero d) -> (
              match Option.bind (of_ast ~classify a) (fun ea -> div_exact ea d) with
              | Some q ->
                add_scaled acc k q;
                true
              | None -> false)
          | _ -> false))

and of_ast ~classify e =
  let acc = { terms = Vm.empty; c = Zint.zero } in
  if lin classify acc Zint.one e then Some { coeffs = acc.terms; const = acc.c } else None
