(** The execution oracle for the analysis's rulings: one traced run of
    a program ({!Dda_lang.Interp.iter}, at most 5,000,000 statement
    executions) checks every pair verdict ([ddtest check --trace]) or
    every DOALL loop of a lint summary ([ddtest lint --differential]). *)

open Dda_lang
open Dda_core

type 'a outcome =
  | Ran of 'a
  | Cannot_run of string * Loc.t
      (** the run raised before anything was refuted: nothing is
          validated *)

type pairs = {
  pairs : int;  (** pair verdicts checked *)
  mismatches : (Analyzer.pair_report * bool) list;
      (** in pair order, each with the dependence it claims *)
  unexercised : int;
      (** exact "dependent" claims on inputs or guards the run did not
          exercise *)
}

val pairs : Ast.program -> pairs outcome
(** Analyze the program with full direction refinement and no prepass,
    run it once with every input read as 0 (a program with no pair is
    not run), and compare each verdict with the trace. An exact
    "independent" must show no shared cell. An exact "dependent" is
    existential (some symbolic values, some iterations an [if] leaves
    out), so one run refutes it only for references whose subscripts
    and bounds are loop variables and constants, outside every [if]. A
    conservative verdict is refuted by nothing. *)

type doall = {
  doall : int;  (** DOALL loops in the summary *)
  executed : int;  (** of them, those that ran at least one iteration *)
  refuted : string option;  (** the first refuted loop, named *)
}

val doall : prepared:Ast.program -> Summary.t -> doall outcome
(** Run [prepared] (the program the summary's loops refer to) once
    with input [n = 6], stopping at the first refutation, and check
    every DOALL loop: within one execution of the loop, no array cell
    is touched by two iterations with one of them writing, and no
    iteration reads a scalar the loop writes before writing it
    ({!Summary}'s carried-scalar rule). The value a scalar carries out
    of the loop is not judged: [lastprivate] copies it out. *)
