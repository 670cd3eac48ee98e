(** A small C back end: the point where the dependence analysis pays
    off. Emits a self-contained C translation unit for a mini-Fortran
    program, annotating loops the analysis proved parallel with
    [#pragma omp parallel for].

    Scope: programs whose loop bounds are compile-time constants and
    whose array subscripts stay within statically computable intervals
    (interval arithmetic over the loop ranges sizes the C arrays;
    anything else — [read], non-constant bounds — is rejected with an
    explanation). Loop semantics mirror the reference interpreter
    exactly, including the Fortran-style "variable keeps the last
    executed value" rule, so the emitted program's final-state dump is
    directly comparable to {!Dda_lang.Interp.final_state} — which is
    how the test suite validates this back end: compile with a real C
    compiler, run, diff. *)

open Dda_lang

val emit :
  ?parallel:(Loc.t -> bool) ->
  Ast.program ->
  (string, string) result
(** [parallel] (default: none) rules on each loop by its [for]
    statement's location; loops it holds parallel receive the OpenMP
    pragma, with every scalar the loop body writes made private to a
    thread. The generated [main] executes the program and prints
    every scalar as [name=value] (sorted) and every non-zero array cell
    as [name[i][j]=value] (name-major, index-lexicographic) — the same
    order {!state_dump} produces. *)

val state_dump : Interp.state -> string
(** Render an interpreter final state in the emitted program's output
    format, for comparison. *)
