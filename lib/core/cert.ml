open Dda_numeric

type deriv =
  | Hyp of int
  | Cut of int
  | Comb of (Zint.t * deriv) list
  | Tighten of deriv

type infeasible =
  | Refute of deriv
  | Split of {
      var : int;
      bound : Zint.t;
      left : infeasible;
      right : infeasible;
    }

type eq_refutation = {
  multipliers : Zint.t array;
  modulus : Zint.t;
}

type drow = {
  row : Consys.row;
  why : deriv;
}

let rec pp_deriv fmt = function
  | Hyp i -> Format.fprintf fmt "h%d" i
  | Cut i -> Format.fprintf fmt "c%d" i
  | Tighten d -> Format.fprintf fmt "[%a]" pp_deriv d
  | Comb terms ->
    Format.fprintf fmt "(@[%a@])"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ + ")
         (fun fmt (m, d) -> Format.fprintf fmt "%a*%a" Zint.pp m pp_deriv d))
      terms

let rec pp_infeasible fmt = function
  | Refute d -> Format.fprintf fmt "refute %a" pp_deriv d
  | Split { var; bound; left; right } ->
    Format.fprintf fmt "@[<v 2>split t%d at %a {@,left: %a@,right: %a@]@,}" var
      Zint.pp bound pp_infeasible left pp_infeasible right

let rec deriv_size = function
  | Hyp _ | Cut _ -> 1
  | Tighten d -> 1 + deriv_size d
  | Comb terms -> List.fold_left (fun n (_, d) -> n + deriv_size d) 1 terms

let rec size = function
  | Refute d -> deriv_size d
  | Split { left; right; _ } -> 1 + size left + size right
