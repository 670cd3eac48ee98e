(** Dependence edges: the one place a {!Dda_core.Analyzer} pair verdict
    becomes dependence edges. Every client reads the dependence graph
    from here — the per-loop parallelism summary ({!Summary}) and the
    linter, loop-transformation legality ({!Transforms}), loop
    distribution ({!Distribute}) and the Graphviz export
    ({!Depgraph}).

    Each edge is tagged flow/anti/output/input, with the set of loops
    that may carry it extracted from its direction vector.

    Orientation rule ({!readings}): the leading non-[=] direction of a
    vector ({!Direction.lead}) names the source — [<] the pair's first
    reference, [>] its second; an all-[=] (loop-independent) vector
    runs in textual order, first to second; a leading ["*"] could be
    either, so it is read both ways. A conservative edge is an
    all-["*"] vector over the pair's common loops, read both ways. *)

open Dda_core

type edge = {
  pair : Analyzer.pair_report;
  kind : Analyzer.dep_kind;
  vector : Direction.dir array option;
      (** the direction vector this edge came from; [None] for
          conservative outcomes (non-affine, constant-cell collision,
          or a dependent verdict without vector information) *)
  carried_lids : int list;
      (** ids of the common loops that may carry this edge, outermost
          first — for a vector edge, the levels admitting a first
          difference; for a conservative edge, every common loop *)
  loop_independent : bool;
      (** the edge admits a same-iteration (all-[=]) instance *)
  exact : bool;
      (** the verdict behind this edge is exact — [false] for
          conservative outcomes and budget-degraded verdicts, whose
          vectors are sound over-approximations. An inexact edge may
          deny a loop a DOALL verdict but its existence is not
          proven. *)
}

val pair_edges : Analyzer.pair_report -> edge list
(** The edges of one pair: one per direction vector of a dependent
    pair, in vector order (one conservative edge for a dependent pair
    without vectors); none for an independent pair. *)

val edges : Analyzer.report -> edge list
(** {!pair_edges} of every pair, concatenated in pair order. Read-read
    pairs are never enumerated by the analyzer, so [Input] edges do not
    occur in practice; the classification is total anyway. *)

type reading = {
  forward : bool;
      (** the dependence runs from the pair's first reference to its
          second *)
  dirs : Direction.dir array;
      (** the edge's vector seen from the source: flipped
          ({!Direction.flip}) when the second reference is the
          source *)
}

val readings : edge -> reading list
(** The edge read source to sink, by the orientation rule above: one
    reading, or — for a leading ["*"] and for a conservative edge with
    a common loop — a forward reading then a backward one. No
    reading's leading direction is [>]: a source-to-sink vector is
    lexicographically non-negative unless a ["*"] hides a [>]. *)
