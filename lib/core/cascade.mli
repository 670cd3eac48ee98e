(** The cascaded exact dependence test (paper sections 3 and 4).

    After Extended GCD preprocessing, the tests are attempted cheapest
    first — SVPC, Acyclic, Loop Residue, Fourier-Motzkin — each one
    exact on its applicable class, so at most one test {e decides} any
    query; the earlier ones contribute their simplifications (absorbed
    bounds, eliminated variables) to the later ones. *)

open Dda_numeric

type test =
  | T_svpc
  | T_acyclic
  | T_loop_residue
  | T_fourier

val test_name : test -> string

val test_index : test -> int
(** [0] for SVPC through [3] for Fourier-Motzkin: the index of the
    per-test count arrays and the trace's ["decided_by"] arg. *)

val pp_test : Format.formatter -> test -> unit

type verdict =
  | Independent of Cert.infeasible
      (** infeasibility certificate over the input system's rows,
          checkable by [Dda_check.Certcheck.check_infeasible] *)
  | Dependent of Zint.t array
      (** a full witness over {e all} of the system's variables — the
          eliminations performed by the early tests are replayed, so no
          verdict is ever witness-free *)
  | Unknown  (** Fourier-Motzkin ran out of branch depth: assume
                 dependent *)
  | Exhausted of Budget.reason
      (** the per-query {!Budget} ran out mid-test ([decided_by] is the
          stage that was running): assume dependent, flagged degraded.
          {!Budget.Exhausted} never escapes [run]. *)

type result = {
  verdict : verdict;
  decided_by : test;
}

val run : ?budget:Budget.t -> ?fm_tighten:bool -> Consys.t -> result
(** Decide feasibility of a system of inequalities over integer
    variables (the [t]-space system from {!Gcd_test.run}, possibly with
    direction-vector rows appended). Every verdict carries evidence:
    [Dependent] a point satisfying every row, [Independent] a
    {!Cert.infeasible} certificate whose hypotheses are the input rows
    in order. *)
