(** Dependence-graph export: the analyzer's pair reports as a Graphviz
    digraph over reference sites, edges labeled with dependence kind,
    direction vector and (when constant) distance — what a
    transformation framework or a human debugging a refusal to
    parallelize wants to look at. *)

open Dda_core

val to_dot : Analyzer.report -> string
(** Nodes are reference sites ([array\[..\]] read/write at a location);
    one edge per {!Classify.edge}, oriented by its
    {!Classify.readings} (the instance that executes first points at
    the one that executes second; a leading ["*"], read both ways, is
    drawn once from the pair's first site, dotted, with arrowheads at
    both ends). Each edge is labeled with its
    flow/anti/output/input classification and its carrier — the
    outermost loop that can carry it ([carried L<id>]) or
    [loop-indep] — and carried (DOALL-blocking) edges are colored red.
    Conservative edges (non-affine, constant-subscript collisions,
    dependents without vectors) appear dashed, labeled by the pair's
    outcome, red whenever the pair has a common loop. *)
