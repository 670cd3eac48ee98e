(** Affine expressions over named variables: [c0 + sum ck * vk].

    This is the currency of affine extraction — loop bounds and array
    subscripts are reduced to values of this type (over loop variables
    and symbolic terms) before being compiled into the indexed
    constraint systems the dependence tests consume. *)

open Dda_numeric

type t

val const : Zint.t -> t
val of_int : int -> t
val var : string -> t
val zero : t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Zint.t -> t -> t

val mul : t -> t -> t option
(** [None] unless at least one side is constant (the product would not
    be affine). *)

val div_exact : t -> Zint.t -> t option
(** Division by a constant; [Some] only when every coefficient and the
    constant term are divisible, so the result is exactly affine. *)

val coeff : t -> string -> Zint.t
val const_part : t -> Zint.t
val vars : t -> string list
(** Variables with non-zero coefficients, sorted. *)

val iter : (string -> Zint.t -> unit) -> t -> unit
(** Visit every (variable, non-zero coefficient) pair in sorted
    variable order, without materializing the list {!vars} builds. *)

val exists_var : (string -> bool) -> t -> bool
(** Does any variable (with a non-zero coefficient) satisfy the
    predicate? Allocation-free. *)

val is_const : t -> bool
val to_const : t -> Zint.t option

val eval : (string -> Zint.t) -> t -> Zint.t
val subst : string -> t -> t -> t
(** [subst v e t] replaces [v] by [e] in [t]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val of_ast : classify:(string -> string) -> Dda_lang.Ast.expr -> t option
(** Convert a mini-Fortran expression in one walk, coefficients
    accumulated as the walk meets them. [classify v] is the variable
    the scalar [v] stands for in the affine form (a loop variable's
    own name, or a symbolic term's versioned name), or [""] when [v]
    poisons the expression; it is called once per occurrence, and
    distinct scalars must get distinct names. Array references, products of two
    non-constant parts, and inexact division yield [None]. *)
