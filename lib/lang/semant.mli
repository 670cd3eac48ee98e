(** Semantic checks for the mini-Fortran language.

    The analyzer assumes well-formed loop nests; [check] reports the
    violations that would make dependence analysis meaningless rather
    than merely conservative: assignments to an enclosing loop variable,
    loop-variable shadowing, inconsistent array ranks, non-constant or
    zero loop steps, and uses of never-defined scalars. *)

type error = {
  msg : string;
  loc : Loc.t;
}

val pp_error : Format.formatter -> error -> unit

val check : Ast.program -> error list
(** Empty list means the program is well-formed. *)
