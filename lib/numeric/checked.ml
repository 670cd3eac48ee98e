(* Overflow tests in native ints, without widening: an addition
   overflows exactly when both operands have the sign the sum lacks; a
   product overflows exactly when dividing it back fails. [min_int] is
   excluded as a result, so the range is symmetric and every value in
   it can be negated. *)

let add_ok x y =
  let s = x + y in
  (x lxor s) land (y lxor s) >= 0 && s <> min_int

let sub_ok x y =
  let s = x - y in
  (x lxor y) land (x lxor s) >= 0 && s <> min_int

let mul_ok x y =
  x = 0
  ||
  let p = x * y in
  p / x = y && p <> min_int
