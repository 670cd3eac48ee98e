(** Direction and distance vectors (paper section 6).

    Directions relate the two references' iterations of each common
    loop; a vector is refined hierarchically after Burke and Cytron:
    test [(*,...,*)], and wherever the answer is "dependent" expand the
    leftmost [*] into [<], [=], [>], pruning whole subtrees whose test
    answers "independent".

    Two pruning rules from the paper cut the test count by an order of
    magnitude without losing exactness:
    - {e unused variables}: a common loop whose index appears in neither
      the subscripts nor any other variable's bounds gets direction [*]
      outright;
    - {e distance pruning}: when the GCD solution makes
      [i_k - i'_k] a constant, the direction of level [k] is its sign —
      no test needed (and a constant on {e every} level yields the
      distance vector).

    The hierarchy also realizes the paper's "implicit branch and bound"
    (section 6 end): when the un-directed test cannot prove
    independence but every refined vector can, the pair is
    independent. *)

open Dda_numeric

type dir =
  | Dlt  (** [i < i'] *)
  | Deq
  | Dgt
  | Dany  (** unrefined ["*"] *)

val dir_char : dir -> char
(** ['<'], ['='], ['>'] or ['*']: the one rendering of a direction. *)

val pp_vector : Format.formatter -> dir array -> unit

val vector_to_string : dir array -> string
(** What {!pp_vector} prints, e.g. ["(<,=,*)"]. *)

val add_vector : Buffer.t -> dir array -> unit
(** {!vector_to_string}, appended to a buffer without building the
    string. *)

val flip : dir -> dir
(** The same level seen from the other reference: [<] and [>] trade
    places, [=] and [*] stay. [Array.map flip] reads a vector the
    other way round. *)

val lead : dir array -> dir
(** The leading non-[=] direction of a vector, which says whose
    instance runs first: [<] the first reference's, [>] the second's,
    [*] either. [Deq] when every level is [=] (a loop-independent
    vector, ordered by the program text). *)

type prune = {
  unused : bool;
  distance : bool;
}

val no_pruning : prune
val full_pruning : prune
(** [full_pruning] enables the paper's two rules (unused variables,
    distance), the paper's Table 5 configuration. *)

type counts = {
  mutable by_test : int array;  (** cascade calls decided by each test *)
  mutable indep_by_test : int array;
      (** how many of those calls answered "independent" (the paper's
          section 7 per-test return rates) *)
}

val fresh_counts : unit -> counts

val merge_counts : into:counts -> counts -> unit
(** Add the second counter set into the first, per test. Used to fold
    per-domain (or per-program) counters into corpus totals. *)

val first_difference :
  Problem.t -> Gcd_test.reduction -> int -> dir -> Consys.t
(** [first_difference p red k d] is [red]'s system restricted to the
    iteration pairs that agree on the common levels before [k] and
    relate by [d] at level [k] ([Dlt] is [i_k < i'_k]). The rows are
    [red]'s, then the direction rows level by level, moved into [red]'s
    free-variable space; certificates and witnesses index them in that
    order. [k = ncommon] with [d = Dany] is the all-equal cell. Witness
    replay and the verifier's direction obligations query these
    systems. *)

type result = {
  dependent : bool;
  vectors : dir array list;
      (** direction vectors (length [ncommon]) under which the
          references are dependent; a [Dany] entry means the level was
          pruned, standing for all three directions *)
  distance : Zint.t array option;
      (** the distance vector when every common level has constant
          difference *)
  implicit_bb : bool;
      (** true when the plain test could not prove independence but
          every direction vector could *)
  degraded : Budget.reason option;
      (** the per-query {!Budget} ran out mid-refinement: the vector
          set is a sound {e over}-approximation (untestable subtrees
          are recorded as single conservative cells with [*] at the
          unrefined levels), not the exact set *)
}

val refine :
  ?budget:Budget.t ->
  ?prune:prune ->
  ?fm_tighten:bool ->
  ?counts:counts ->
  ?exclude_all_eq:bool ->
  Problem.t ->
  Gcd_test.reduction ->
  result
(** [refine problem reduction] assumes {!Gcd_test.run} already returned
    [Reduced reduction] for [problem].

    [exclude_all_eq] serves self pairs (a write tested against itself):
    the all-[=] vector is the reference's own instance, not a
    dependence, so it is neither tested nor reported — a self pair with
    no other vector is independent. *)
