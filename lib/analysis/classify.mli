(** Dependence-edge classification: every {!Dda_core.Analyzer} pair
    verdict flattened into edges tagged flow/anti/output/input, with
    the set of loops that may carry each edge extracted from its
    direction-vector set. This is the form the per-loop parallelism
    summary ({!Summary}) consumes. *)

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

val kind_name : Analyzer.dep_kind -> string
(** ["flow" | "anti" | "output" | "input"]. *)
