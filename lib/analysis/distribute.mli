(** Allen-Kennedy style loop distribution and vectorization analysis —
    the classic consumer of statement-level dependence information (the
    paper's reference [2]).

    For one loop, build the dependence graph over the statements of its
    body, restricted to dependences {e relevant at that loop's level}
    (loop-independent within an iteration, or carried by this loop or
    deeper — dependences carried by an outer loop are satisfied no
    matter how this loop is rearranged). The strongly connected
    components of that graph, in topological order, are the legal
    distribution: each SCC becomes its own loop, and a component with no
    dependence carried at this level runs data-parallel (vectorizes). *)

open Dda_lang
open Dda_core

type group = {
  stmts : Loc.t list;  (** statements of the component, textual order *)
  parallel : bool;
      (** no dependence carried at this loop's level stays inside the
          component: its distributed loop may run in any order *)
}

type plan = {
  lid : int;
  groups : group list;  (** topological (execution-legal) order *)
}

type edge = {
  src : Loc.t;  (** the statement executing first *)
  dst : Loc.t;
  carried : bool;  (** at this loop's level (or deeper) *)
}

val stmt_edges : lid:int -> Classify.edge -> edge list
(** The statement-level edges a dependence edge contributes at loop
    [lid]'s level: one per {!Classify.readings} reading that no outer
    loop already satisfies, from the source reference's statement to
    the sink's. A loop-independent reading runs in statement order
    within an iteration, and one within a single statement is dropped.
    None when [lid] is not a common loop of the pair. *)

val plan_loop : Analyzer.report -> lid:int -> stmts:Loc.t list -> plan
(** [stmts] are the statement locations of the loop's body in textual
    order (see {!body_stmts}). Statements whose dependences the
    analyzer could not refine are handled conservatively (their edges
    go both ways and count as carried). *)

val body_stmts : Ast.program -> lid:int -> Loc.t list option
(** The statement locations of the body of loop number [lid] (loops are
    numbered in pre-order, exactly as {!Affine.extract} numbers them).
    [None] when the loop does not exist or its body contains anything
    but array-assignment statements (conditionals, nested loops and
    scalar assignments are not distributed). *)

val apply : Ast.program -> plan -> Ast.program option
(** Rewrite the program with the planned loop distributed: one copy of
    the loop per group, in plan order. [None] under the same conditions
    as {!body_stmts}, or when the loop's bounds are not pure scalar
    expressions (duplicating them must not duplicate array reads).
    Used by the tests to validate plans by execution. *)
