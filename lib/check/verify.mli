(** The self-verification driver: replay the analyzer pair by pair,
    re-derive every verdict's evidence, and validate it with
    {!Certcheck} against the original problem.

    For each reported pair the driver rebuilds the dependence problem
    from the same sites the analyzer saw and discharges the verdict:

    - a {e dependent} verdict must come with an integer witness, mapped
      back to original variables and checked against every subscript
      equality and loop bound;
    - an {e independent} verdict must come with an infeasibility
      certificate (or, for the bounds-free Extended GCD case, a
      divisibility refutation of the equality rows) that {!Certcheck}
      accepts;
    - a {e self} pair's verdict is decomposed into one obligation per
      (first differing common level, direction) — each certified
      independent or witnessed by a concrete pair of differing
      iterations;
    - conservative answers ({e assumed dependent}, Fourier-Motzkin
      exhaustion, symbolic bounds) are explained with warnings rather
      than certified.

    Failures surface as lint-style, source-located diagnostics. *)

open Dda_lang
open Dda_core

type severity =
  | Sev_error  (** a certificate failed to validate, or the replayed
                   verdict contradicts the reported one: the analysis
                   cannot be trusted on this pair *)
  | Sev_warning  (** a verdict that is conservative by design and
                    therefore carries no certificate *)

type diagnostic = {
  severity : severity;
  loc : Loc.t;  (** the pair's first reference *)
  loc2 : Loc.t option;  (** the second reference, when distinct *)
  array_name : string option;
  code : string;
      (** stable machine-readable tag: [bad-witness],
          [bad-certificate], [bad-refutation], [verdict-mismatch],
          [oracle-mismatch], [replay-divergence], [non-affine],
          [rank-mismatch], [symbolic-bound], [fm-exhausted],
          [degraded] *)
  message : string;
}

type summary = {
  diagnostics : diagnostic list;  (** in pair order *)
  pairs : int;  (** reference pairs examined *)
  certificates : int;
      (** witnesses, infeasibility certificates and equality
          refutations validated (or found invalid) *)
  errors : int;
  warnings : int;
}

val run :
  ?config:Analyzer.config ->
  ?cancel:(unit -> bool) ->
  ?oracle:bool ->
  ?corrupt:bool ->
  Ast.program ->
  summary
(** Verify the report {!Analyzer.analyze_sites} computes from the
    program's {!Analyzer.front_end}, with {!verify_report}.

    [oracle] (default [true]) additionally cross-checks every decided
    in-scope system against {!Oracle.exhaustive}. [corrupt] (default
    [false]) deliberately mangles every certificate and witness before
    checking — a self-test that the checker actually rejects bad
    evidence; a run with [corrupt:true] on a program with any tested or
    gcd-independent pair must produce errors.

    Replay runs under the budget of [config.limits] (plus the [cancel]
    deadline poll, default never). A replay that runs out of budget
    never fails the check: a verdict the analyzer itself flagged as
    degraded only claims an over-approximation, so the checker records
    [degraded] {e warnings} for anything it cannot (or need not)
    certify — including replay proving a degraded "dependent" pair
    independent, which confirms soundness rather than contradicting
    the report. *)

val verify_report :
  ?cancel:(unit -> bool) ->
  ?oracle:bool ->
  ?corrupt:bool ->
  config:Analyzer.config ->
  (Affine.site * Affine.site) list ->
  Analyzer.report ->
  summary
(** The core of {!run} for callers that already have the report (the
    streaming engine, [ddtest analyze --verify]): [pairs] must be the
    pairs the report was computed from, in order — the [pairs] of the
    {!Analyzer.front_end} whose {!Analyzer.analyze_sites} produced it.
    Certificates are checked against the problems those pairs' sites
    build, so they cover the prepared program, not the prepass that
    produced it. *)

val severity_name : severity -> string

val pp_diagnostic : file:string -> Format.formatter -> diagnostic -> unit
(** One [file:line:col: severity: [code] message] line (no trailing
    newline) — the rendering shared by {!pp_text} and the lint
    layer. *)

val diagnostic_json : diagnostic -> Json_out.t
(** One diagnostic as the JSON object {!to_json} embeds. *)

val pp_text : file:string -> Format.formatter -> summary -> unit
(** One [file:line:col: severity: [code] message] line per diagnostic,
    then a one-line summary. *)

val to_json : file:string -> summary -> Json_out.t
