(** Shared expression utilities for the optimizer passes.

    Every rewriter here is identity-preserving: when no rule fires it
    returns its argument physically unchanged ([==]), and on an
    argument already in normal form it allocates nothing. A converged
    round of the pipeline therefore allocates nothing. *)

open Dda_lang

val map_sharing : ('a -> 'a) -> 'a list -> 'a list
(** [List.map] that returns the input list physically unchanged when
    [f] returns every element physically unchanged. All rewriters in
    this module are identity-preserving in the same sense, so a
    fixpoint round of the pipeline allocates (almost) nothing. *)

val map_sharing_with : ('b -> 'a -> 'a) -> 'b -> 'a list -> 'a list
(** [map_sharing_with f x l = map_sharing (f x) l], without allocating
    the partial application. *)

val const_fold : Ast.expr -> Ast.expr
(** Bottom-up constant folding with algebraic identities ([e + 0],
    [e * 1], [e * 0], [e - 0], [e / 1], double negation). Division is
    folded only when the divisor is a non-zero constant and, for a
    constant dividend, only exactly as truncating division. A fold
    whose result would leave the native int range (or be [min_int])
    is not made: the expression stays as written, for the exact
    extraction downstream. *)

val linearize : Ast.expr -> Ast.expr
(** Canonicalize the additive structure: collect the expression as an
    integer linear combination of atoms (variables and opaque subtrees)
    plus a constant, merging and cancelling pure scalar atoms
    ([i - 1 + 1] becomes [i], [(n + 1) * 2] becomes [2 * n + 2]) and
    re-emitting deterministically. Atoms that read arrays are kept
    one-for-one — never merged, cancelled or dropped — so the access
    trace is preserved exactly. When the constant or a coefficient
    would leave the native int range (or be [min_int]), the
    expression is returned as written. *)

val const_value : Ast.expr -> int option
(** [Some n] when the expression folds to the literal [n]. *)

val canonicalize : Ast.expr -> Ast.expr
(** [linearize (const_fold e)]: the normal form every pass leaves an
    expression in. *)

val subst : (string -> Ast.expr option) -> Ast.expr -> Ast.expr
(** Substitute scalar variables; array names are untouched, and
    substitution descends into subscripts. The result is
    {!canonicalize}d. *)

val is_pure_scalar : Ast.expr -> bool
(** True when the expression contains no array reference (its value
    depends only on scalar state). *)

val iter_assigned : (string -> unit) -> Ast.stmt list -> unit
(** Calls [f] on every scalar assigned (or [read]) anywhere in the
    statements, loop variables of contained loops included, in program
    order and with repeats. Allocates nothing itself. *)

val assigned_vars : Ast.stmt list -> string list
(** Scalars assigned (or [read]) anywhere in the statements, including
    loop variables of contained loops; no duplicates. *)

val uses_var : string -> Ast.expr -> bool

val map_program_exprs : (Ast.expr -> Ast.expr) -> Ast.program -> Ast.program
(** Rewrites every expression position of the program (subscripts,
    bounds, right-hand sides, conditions) with [f]. Statement structure
    is preserved. *)
