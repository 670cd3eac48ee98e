(** Assemble the dependence problem for a pair of reference sites:
    subscript-agreement equalities, loop-bound inequalities (each
    reference gets its own copy of every enclosing loop's variable,
    common loops included), and shared symbolic terms. *)

val build : Affine.site -> Affine.site -> Problem.t option
(** [None] when either site has a non-affine dimension or the ranks
    differ (the caller treats such pairs conservatively). Requires both
    sites to reference the same array. *)

val key : tag:int -> Affine.site -> Affine.site -> int array
(** [Problem.to_key ~tag p] for [build s1 s2 = Some p], written straight
    from the two sites into the calling domain's scratch buffer (see
    {!Problem.to_key_scratch} for its lifetime), with no rows, problem,
    symbol list or option allocated. The empty array where [build] is
    [None], and where a subscript or bound holds a value past
    [Zint.small_capacity]: such a pair is keyed, if at all, by
    building it. *)
