(** Machine-checkable evidence for cascade verdicts.

    Every test in the cascade justifies an "independent" answer with a
    certificate rooted in the rows of the system it was asked about:
    a {!deriv} is a Farkas-style derivation of a single implied row
    (nonnegative combinations of hypothesis rows, integer tightenings),
    and an {!infeasible} certificate either refutes the system outright
    — derives [0 <= b] with [b < 0] — or splits on an integer variable
    and refutes both halves (Fourier-Motzkin branch-and-bound).

    Certificates are validated by {!Dda_check.Certcheck} against the
    original system using nothing but row arithmetic, so a verdict never
    has to be taken on the solvers' word. *)

open Dda_numeric

(** A derivation of one implied row [sum a_i t_i <= b]. *)
type deriv =
  | Hyp of int  (** the [i]-th row of the system under refutation *)
  | Cut of int
      (** the [i]-th branch-and-bound cut on the current {!Split} path,
          outermost first: the left branch of the [i]-th split
          contributes [t_var <= bound], the right branch
          [-t_var <= -(bound+1)] *)
  | Comb of (Zint.t * deriv) list
      (** sum of scaled rows; every multiplier must be positive *)
  | Tighten of deriv
      (** divide the coefficients by their gcd [g] and floor the bound:
          exact for integer variables ([2x <= 5] tightens to [x <= 2]);
          the identity when [g <= 1] *)

(** Evidence that a system has no integer solution. *)
type infeasible =
  | Refute of deriv
      (** the derived row is variable-free with a negative bound *)
  | Split of {
      var : int;
      bound : Zint.t;
      left : infeasible;  (** refutes the system plus [t_var <= bound] *)
      right : infeasible;
          (** refutes the system plus [t_var >= bound + 1] *)
    }

type eq_refutation = {
  multipliers : Zint.t array;  (** one per equality row of the problem *)
  modulus : Zint.t;  (** [>= 2] *)
}
(** Evidence from the Extended GCD test that the subscript {e equalities}
    alone have no integer solution: modulo [modulus], the combination
    [sum_j multipliers.(j) * eq_j] has all-zero variable coefficients
    but a non-zero right-hand side. *)

type drow = {
  row : Consys.row;
  why : deriv;  (** derivation of [row] from the hypothesis rows *)
}
(** A row travelling through the cascade with its provenance. *)

val pp_deriv : Format.formatter -> deriv -> unit
val pp_infeasible : Format.formatter -> infeasible -> unit

val deriv_size : deriv -> int
val size : infeasible -> int
(** Node counts, for reporting certificate sizes. *)
