type t = { line : int; col : int }

let dummy = { line = 0; col = 0 }
let make ~line ~col = { line; col }

let compare a b =
  match Stdlib.compare a.line b.line with
  | 0 -> Stdlib.compare a.col b.col
  | c -> c

let equal a b = compare a b = 0
let to_string { line; col } = string_of_int line ^ ":" ^ string_of_int col
let pp fmt l = Format.pp_print_string fmt (to_string l)
