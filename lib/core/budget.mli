(** Per-query resource accounting (the robustness backbone).

    Fourier-Motzkin elimination is worst-case exponential, and the
    cascade's whole point is that the expensive corner is rare — but a
    production service cannot bet on "rare". A {!t} is a per-query
    account threaded through every solver stage; when any dimension
    runs out the stage raises {!Exhausted}, which {!Cascade.run} (and,
    as a backstop, the analyzer) converts into a {e sound, flagged}
    conservative verdict: assume dependent, mark the answer degraded.
    Exhaustion never escapes the analyzer and never costs soundness —
    "dependent" is always a safe over-approximation.

    The account is cooperative: stages call {!tick}/{!check_rows}/
    {!check_coeff} at their work loops. The optional [cancel] callback
    is polled every few dozen ticks, letting an external watchdog (the
    batch engine's per-item deadline) stop a stuck query without
    signals or domain-kills. *)

type reason =
  | Steps  (** the solver step account ran out *)
  | Rows  (** a Fourier-Motzkin system exceeded the row cap *)
  | Coeff  (** a derived coefficient exceeded the magnitude cap *)
  | Deadline  (** the [cancel] callback asked us to stop *)
  | Injected  (** a {!Failpoint} forced exhaustion (testing only) *)

val reason_name : reason -> string

type limits = {
  fm_depth : int;  (** Fourier branch-and-bound depth (default 32) *)
  fm_branches : int;
      (** total branch-and-bound splits per Fourier solve (default 64,
          the historical hardcoded budget); running out yields
          [Fourier.Unknown], not {!Exhausted} — that path predates the
          budget machinery and is already flagged as inexact *)
  max_steps : int option;  (** total solver steps per query *)
  max_rows : int option;  (** peak rows in any Fourier system *)
  max_coeff_bits : int option;
      (** cap on derived coefficient magnitude, as a bit count:
          exhausted when [|c| > 2^bits] *)
}

val default_limits : limits
(** Depth 32, branches 64, every new dimension unlimited — exactly the
    pre-budget behavior. *)

type t

exception Exhausted of reason
(** Internal control flow: raised by the checks below, caught by
    {!Cascade.run} / the analyzer. Never escapes the analyzer API. *)

val create : ?cancel:(unit -> bool) -> limits -> t
(** [cancel] is polled roughly every 64 ticks; returning [true]
    exhausts the budget with reason {!Deadline}. *)

val unlimited : unit -> t
(** [create default_limits]: checks cost almost nothing. *)

val limits : t -> limits

val tick : ?cost:int -> t -> unit
(** Charge [cost] (default 1) solver steps; raises {!Exhausted} when
    the account runs out (sticky: every later call re-raises). *)

val check_rows : t -> int -> unit
val check_coeff : t -> Dda_numeric.Zint.t -> unit

val exhaust : t -> reason -> 'a
(** Mark the account spent and raise. *)

val spent : t -> reason option
val steps_used : t -> int
