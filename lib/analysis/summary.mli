(** The per-loop parallelism summary: every loop of a program marked
    DOALL, vectorizable, reduction-candidate, or serial, with the
    dependence edges that block parallelization cited as evidence —
    each backed, where the cascade can, by a certificate-derived
    witness pair of iterations from {!Dda_core.Cascade.Dependent}.

    Soundness direction: a conservative or budget-degraded verdict can
    only {e deny} a DOALL marking, never grant one. A loop is DOALL
    only when every array dependence that could be carried by it is
    exactly refuted and no scalar is both written and upward-exposed
    read in its body. *)

open Dda_numeric
open Dda_lang
open Dda_core

type verdict =
  | Doall  (** no carried dependence: iterations are independent *)
  | Vectorizable
      (** every carried dependence is an exact anti dependence (reads
          complete before the writes of later iterations in a chunked
          execution) *)
  | Reduction
      (** carried dependences are confined to accumulation statements
          ([x = x ⊕ e], [⊕] commutative-associative), and each
          accumulator scalar is read nowhere else in the body (a
          prefix scan such as [s = s + a\[i\]; b\[i\] = s] is
          [Serial]) — parallelizable with a reduction clause *)
  | Serial

val verdict_name : verdict -> string

type witness = {
  iter1 : Zint.t array;  (** common-loop iteration of the source *)
  iter2 : Zint.t array;
}
(** A concrete pair of iterations realizing a blocking edge at its
    carrier level, mapped back from a {!Cascade.Dependent} witness via
    the extended-gcd reduction. *)

type blocking = {
  edge : Classify.edge;
  witness : witness option;
      (** [None] when the replay could not produce one (conservative
          edge on a non-affine pair, or the witness query exhausted its
          budget) *)
}

type loop_info = {
  lid : int;  (** pre-order id, as {!Affine} assigns them *)
  var : string;
  loc : Loc.t;  (** the [for] statement *)
  depth : int;  (** 0 = outermost *)
  parallel_annot : bool;  (** carries a [parallel] source annotation *)
  verdict : verdict;
  blocking : blocking list;  (** array edges this loop may carry *)
  scalar_blockers : string list;
      (** scalars written in the body and read upward-exposed — each
          makes iterations communicate through the scalar *)
  degraded : bool;
      (** some blocking evidence is conservative or budget-degraded:
          the denial of DOALL is sound but possibly not tight *)
}

type t = {
  loops : loop_info list;  (** pre-order *)
  edges : Classify.edge list;
}

type loop_meta = {
  m_lid : int;  (** pre-order id, as {!Affine} assigns them *)
  m_loc : Loc.t;  (** the [for] statement *)
  m_depth : int;  (** 0 = outermost *)
  m_for : Ast.for_loop;
}

val loop_metas : Ast.program -> loop_meta list
(** Every loop of the program in pre-order — the one walk that numbers
    loops as {!Affine.extract} does. *)

val doall_loops : t -> (int * bool) list
(** [(lid, is_doall)] per loop, sorted by id: what the tests compare
    against ground truth. *)

val is_doall : t -> Loc.t -> bool
(** Whether the [for] statement at the location is a certified DOALL
    loop: the one parallelism decider, behind [annotate] and the C
    back end's pragmas. *)

val compute :
  ?config:Analyzer.config ->
  ?cancel:(unit -> bool) ->
  prepared:Ast.program ->
  pairs:(Affine.site * Affine.site) list ->
  Analyzer.report ->
  t
(** [prepared] and [pairs] must be those of the {!Analyzer.front_end}
    the report was computed from, pairs in order — the same contract
    as {!Dda_check.Verify.verify_report}; a length mismatch loses every
    witness, and pairs in another order give meaningless witnesses,
    never a different verdict.

    One pair-major pass, linear in pairs + edges + loops: each pair's
    edges are pushed onto the buckets of the loops they may carry, in
    edge order. Witness replay runs under [config]'s budget and is
    memoized for the duration of this call, at memo cost: a pair's
    entry is looked up by {!Build_problem.replay_key}, written straight
    from its two sites into the domain's scratch buffer, so a pair whose
    problem is already known builds nothing, and pairs with identical
    problems share one gcd reduction and one cascade query per distinct
    (level, direction). Only a miss builds the problem and reduces it.
    The key keeps row signs ({!Problem.to_key}'s normalization is not
    applied, since a negated equality can reduce to a different
    particular solution and so to different witness iterations) and
    each bound's [subject]; names are ignored. A pair with no replay
    key (a value past the native int range) is built and looked up as
    its {!Problem.t}, compared and hashed as {!Dda_numeric.Zint}s, and
    memoized like any other. An exhausted query is not cached; it
    leaves the witness [None] and never changes a verdict. Witness
    records are shared between blocking entries (of one loop or
    several): treat them as immutable. *)
