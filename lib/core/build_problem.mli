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

val replay_key : Affine.site -> Affine.site -> int array
(** The witness replay's memo key for [build s1 s2 = Some p]: {!key}'s
    layout, written the same way into the same scratch buffer, with
    three differences. There is no tag; each equality row keeps the
    signs [build] gives it ({!Problem.normalize_eq} is not applied, as
    a negated row can reduce to a different particular solution); and
    each bound row is preceded by its [subject]. So two pairs get
    equal replay keys exactly when their built problems are equal up
    to variable names. The empty array where {!key} is. *)
