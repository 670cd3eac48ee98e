(** Forward substitution.

    Replaces a use of a scalar with the pure scalar expression that
    defined it when the definition still holds at the use: neither the
    variable nor anything it was computed from has been reassigned (or
    [read]) in between. This turns chains like
    [m = n + 1; a[m + i] = ...] into subscripts that are affine in loop
    variables and symbolic terms, widening the applicability of the
    dependence tests exactly as the paper's prepass does.

    The defining assignments themselves are kept (they may still be
    live); dead-code removal is out of scope. *)

val run : Dda_lang.Ast.program -> Dda_lang.Ast.program

val substitutes : Dda_lang.Ast.program -> bool
(** Whether some statement assigns a scalar ([v = e]). Without one
    nothing is ever bound, and [run] only canonicalizes every
    expression ({!Expr_util.canonicalize}). *)
