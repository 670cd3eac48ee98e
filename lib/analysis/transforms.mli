(** Loop-transformation legality — the classic clients of direction
    vectors. A transformation is legal when every dependence's
    source-to-sink direction vector remains lexicographically
    non-negative afterwards; an unrefined ["*"] level is treated
    conservatively (it could hide a [>]).

    The vectors are the source-to-sink {!Classify.readings} of each
    pair's edges, so pairs the analyzer could not refine (non-affine,
    constant-cell collisions, vector-less dependents) count as all-["*"]
    dependences over their common loops. *)

open Dda_core

val reversal_legal : Analyzer.report -> lid:int -> bool
(** May the loop's iteration order be reversed? Legal iff the loop
    carries no dependence (equivalently: iff it is parallelizable). *)

val interchange_legal : Analyzer.report -> lid_a:int -> lid_b:int -> bool
(** May the two loops of a perfect nest trade places? Checks every
    dependent pair whose common nest contains both loops: swapping the
    two positions of each source-to-sink vector must leave it
    lexicographically non-negative. The caller is responsible for the
    nest being perfect (statement structure is not consulted). *)

val legal_permutations : Analyzer.report -> int list -> int list list
(** All permutations of the given (perfectly nested, outer-to-inner)
    loop ids under which every dependence survives; the identity is
    always included. *)

val fully_permutable : Analyzer.report -> int list -> bool
(** Is the band of loops fully permutable — the precondition for tiling
    it? True when every dependence is either already satisfied by a
    loop outside (above) the band, or has no negative (and no unknown)
    component anywhere inside it. Implies that every permutation of the
    band is legal (property-tested against {!legal_permutations}). *)
