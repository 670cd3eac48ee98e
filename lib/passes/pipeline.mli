(** The optimizer pipeline the dependence analyzer runs behind, in the
    paper's order: constant propagation, forward substitution,
    induction-variable substitution, and loop normalization, iterated
    to a fixed point (each pass can expose work for the others —
    e.g. induction substitution creates expressions constant
    propagation can fold).

    A round that changes nothing returns its input physically
    unchanged ([==]) and allocates nothing: each pass is then one walk
    of the program. [run] stops at the first such round, so on a
    program that is already a fixed point it costs one walk per pass
    and returns its argument [==]. *)

val run : ?max_rounds:int -> Dda_lang.Ast.program -> Dda_lang.Ast.program
(** [max_rounds] bounds the fixpoint iteration (default 8, far more
    than real programs need). *)

val passes : (string * (Dda_lang.Ast.program -> Dda_lang.Ast.program)) list
(** The individual passes by name, in pipeline order, for the CLI and
    for ablation experiments. *)
