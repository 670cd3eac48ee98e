(** Per-variable integer bound boxes [lo_i <= t_i <= hi_i] with
    infinities, shared by the SVPC and Acyclic tests: single-variable
    constraints are absorbed here, multi-variable ones stay as rows. *)

open Dda_numeric

type t

val create : int -> t
(** All variables unbounded. *)

val copy : t -> t
val nvars : t -> int
val lo : t -> int -> Ext_int.t
val hi : t -> int -> Ext_int.t

val lo_why : t -> int -> Cert.deriv option
(** Derivation of the bound row [-t_i <= -lo], when the bound is finite
    and was installed with a provenance. *)

val hi_why : t -> int -> Cert.deriv option
(** Derivation of [t_i <= hi]. *)

val tighten_lo : ?why:Cert.deriv -> t -> int -> Zint.t -> unit
(** [why], if given, must derive the row [-t_i <= -v]; it is recorded
    when the bound strictly improves. *)

val tighten_hi : ?why:Cert.deriv -> t -> int -> Zint.t -> unit
(** [why] must derive [t_i <= v]. *)

val absorb :
  ?why:Cert.deriv -> t -> Consys.row -> [ `Absorbed | `Trivial | `False ]
(** Fold a zero- or one-variable row into the box. [`Trivial] means the
    row holds vacuously ([0 <= b], [b >= 0]); [`False] means it can
    never hold. [why], if given, must derive the absorbed row; the
    stored bound derivation wraps it in {!Cert.Tighten} when the
    coefficient is not a unit. @raise Invalid_argument on a row with two
    or more variables. *)

val consistent : t -> bool
(** Every interval non-empty. *)

val first_empty : t -> int option
(** Index of a variable whose interval is empty, if any. *)

val refute_empty : t -> Cert.infeasible option
(** A certificate that the box is empty: the crossing variable's two
    bound rows sum to [0 <= hi - lo < 0]. [None] when consistent.
    @raise Invalid_argument when the box is empty but the crossing
    bounds were installed without provenance. *)

val sample : t -> Zint.t array option
(** A point inside the box ([None] when inconsistent): the lower bound
    where finite, else the upper bound, else zero. *)

val pp : Format.formatter -> t -> unit
