(** The parallelism linter: run the full analysis pipeline, summarize
    every loop's parallelizability, and check [parallel] source
    annotations against the dependence evidence.

    Findings reuse {!Dda_check.Verify}'s source-located diagnostic
    shape:

    - [parallel-race] ({e error}): a [parallel]-annotated loop has an
      exactly-established carried dependence (array edge with a
      certified direction vector, or a scalar written and read across
      iterations) — running it in parallel races.
    - [parallel-unproven] ({e warning}): only conservative or
      budget-degraded evidence blocks the annotated loop; the analysis
      cannot certify the annotation, but has not proven a race either.

    Exit-code policy (applied by the CLI): errors mean findings
    (exit 2); warnings alone are clean (exit 0) — so a run degraded by
    tight [--budget-*] limits degrades to warnings rather than
    fabricating races. *)

open Dda_lang
open Dda_core
open Dda_check

type result = {
  prepared : Ast.program;  (** the program the summary's loops refer to *)
  sites : Affine.site list;
  report : Analyzer.report;
  summary : Summary.t;
  findings : Verify.diagnostic list;  (** loop order *)
  errors : int;
  warnings : int;
}

val run :
  ?config:Analyzer.config -> ?cancel:(unit -> bool) -> Ast.program -> result
(** {!of_front} over the program's {!Analyzer.front_end} and the report
    {!Analyzer.analyze_sites} computes from its pairs. *)

val of_front :
  ?config:Analyzer.config ->
  ?cancel:(unit -> bool) ->
  Analyzer.front ->
  Analyzer.report ->
  result
(** Lint a report computed from the front's pairs (the streaming
    engine's lint step, which also verifies the same report):
    {!Summary.compute}, then annotation checking. [config] must be the
    one the front and the report were built with. Also bumps the
    [lint.*] counters in the {!Dda_obs.Metrics} registry — once per
    call, a pure function of the input, so batch metrics stay
    jobs-invariant. *)

val of_report :
  ?config:Analyzer.config ->
  ?cancel:(unit -> bool) ->
  prepared:Ast.program ->
  sites:Affine.site list ->
  Analyzer.report ->
  result
(** {!of_front} for a caller that holds only the prepared program and
    its sites, not the front (the perfbench harness): the same body,
    with the pairs enumerated again by {!Analyzer.site_pairs}. Kept for
    perfbench alone; the library's callers use {!run} or {!of_front}. *)

val to_text : file:string -> result -> string
(** Per-loop verdict lines, findings as
    [file:line:col: severity: [code] message], and a one-line
    summary. *)

val to_json : file:string -> result -> Json_out.t
(** The summary, findings and counts as one JSON object, written
    straight into one buffer and returned as a {!Json_out.Raw}. A
    witness is written out in full in every blocking entry that
    carries it, even when several entries share one witness record. *)

val to_sarif : file:string -> result -> Json_out.t
(** SARIF 2.1.0: one run, driver [ddtest-lint], rules
    [parallel-race] and [parallel-unproven], one result per
    finding. *)
