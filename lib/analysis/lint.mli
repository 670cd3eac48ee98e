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
(** Pipeline prepass (per [config.run_pipeline]), affine extraction,
    pair analysis, {!Summary.compute}, annotation checking. Also bumps
    the [lint.*] counters in the {!Dda_obs.Metrics} registry — once
    per call, a pure function of the input, so batch metrics stay
    jobs-invariant. *)

val of_report :
  ?config:Analyzer.config ->
  ?cancel:(unit -> bool) ->
  prepared:Ast.program ->
  sites:Affine.site list ->
  Analyzer.report ->
  result
(** Lint a report that was already produced elsewhere (the batch and
    streaming engines, which have their own analysis loop): [prepared]
    and [sites] must be the pipeline output and affine extraction the
    report was computed from, so the report's pair order matches the
    analyzer's own enumeration ({!Analyzer.site_pairs}). Metrics are
    bumped exactly as in {!run}. *)

val to_text : file:string -> result -> string
(** Per-loop verdict lines, findings as
    [file:line:col: severity: [code] message], and a one-line
    summary. *)

val to_json : file:string -> result -> Json_out.t
(** The summary, findings and counts as one JSON object, written
    straight into one buffer and returned as a {!Json_out.Raw}. Each
    witness record's text is rendered once per call, however many
    blocking entries share it. *)

val to_sarif : file:string -> result -> Json_out.t
(** SARIF 2.1.0: one run, driver [ddtest-lint], rules
    [parallel-race] and [parallel-unproven], one result per
    finding. *)
