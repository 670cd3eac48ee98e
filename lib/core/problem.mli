(** A dependence problem in the paper's normal form.

    Two references enclosed in loop nests sharing [ncommon] outer
    loops. The unknowns are the loop variables of the first reference's
    iteration ([i]), those of the second ([i']), and the shared
    symbolic terms — laid out in that order. Subscript agreement gives
    one {e equality} row per array dimension; loop bounds give
    {e inequality} rows; symbolic terms are unconstrained. The
    references are dependent iff the system has an integer solution. *)

open Dda_numeric

type bound = {
  row : Consys.row;  (** read as [sum <= rhs] *)
  subject : int;
      (** the loop variable this row bounds (used by the
          unused-variable pruning rule, which must distinguish "appears
          in its own bound" from "appears in another variable's
          bound") *)
}

type t = {
  names : string array;  (** variable names, for printing *)
  n1 : int;  (** loops enclosing the first reference *)
  n2 : int;
  nsym : int;
  ncommon : int;  (** shared outer loops, [<= min n1 n2] *)
  eqs : Consys.row list;  (** rows read as [sum = rhs] *)
  ineqs : bound list;
}

val make :
  names:string array ->
  n1:int ->
  n2:int ->
  nsym:int ->
  ncommon:int ->
  eqs:Consys.row list ->
  ineqs:bound list ->
  t
(** Validates the layout invariants. *)

val ineq_rows : t -> Consys.row list

val nvars : t -> int
val var1 : t -> int -> int
(** Index of the first reference's level-[k] loop variable. *)

val var2 : t -> int -> int
val sym_var : t -> int -> int

val with_extra_ineqs : t -> bound list -> t

val swap : t -> t
(** Exchange the roles of the two references: the paper's "symmetrical
    cases" optimization rests on [a\[i\]] vs [a\[i-1\]] being the same
    problem as [a\[i-1\]] vs [a\[i\]] with the answer mirrored. The
    keys of mirror-image problems coincide because {!to_key}
    sign-normalizes equality rows. *)

val satisfies : Zint.t array -> t -> bool
(** Does a full assignment satisfy every equality and inequality? *)

exception Unkeyable
(** A coefficient or constant is past the native int range, so the
    problem has no key. *)

val to_key : ?tag:int -> t -> int array
(** A canonical integer serialization, the memoization key, written
    into one flat array. Raises {!Unkeyable} when a coefficient does
    not fit a native int; the analyzer then computes the problem
    outside its memo tables. Variable names are not part of
    the key — two textually different nests with the same shape
    memoize together, as in the paper. [tag] prepends one
    caller-chosen slot (e.g. the self-pair flag) without a second
    allocation. *)

val key_without_bounds : t -> int array
(** Serialization of the equalities only, keying the GCD-test memo
    table ("the GCD test does not make use of bounds"). *)

val to_key_scratch : ?tag:int -> t -> int array
val key_without_bounds_scratch : t -> int array
(** Like {!to_key} / {!key_without_bounds}, but written into a buffer
    owned by the calling domain and reused across calls: most keys are
    discarded immediately after a memo-table hit, so the lookup path
    borrows instead of allocating. The buffer is valid only until the
    next [*_scratch] call of the same key length on the same domain —
    anyone retaining the key past that (the memo tables, on a miss)
    must copy it first; {!Analyzer.cache} implementations do. *)

(** {2 The key layout, for key writers outside this module}

    {!Build_problem.key} writes {!to_key}'s layout from two sites
    without building the problem. This module owns the layout: the
    writer asks it for the length, the tag, the header and the bounds
    count, and writes only the rows, each its [nvars] coefficients
    then its rhs. *)

val scratch : int -> int array
(** The calling domain's reusable buffer of length [n], the one the
    [*_scratch] keys borrow; its contents are unspecified. *)

val key_length : tagged:bool -> nvars:int -> neqs:int -> nineqs:int -> int
(** The length of {!to_key}'s key, with a tag slot when [tagged]. *)

val write_key_tag : int array -> int -> int
(** [write_key_tag a tag]: write the tag slot; returns the offset of
    the header. *)

val write_key_header :
  nvars:int -> n1:int -> n2:int -> nsym:int -> ncommon:int -> neqs:int ->
  int array -> int -> int
(** [write_key_header ... a off]: write the header at [off], [0] for an
    untagged key; returns the offset of the first equality row. *)

val write_key_nineqs : int array -> int -> int -> int
(** [write_key_nineqs a off nineqs], [off] just past the last equality
    row: write the bounds count; returns the offset of the first bound
    row. *)

val normalize_eq : int array -> int -> int -> unit
(** [normalize_eq a off n] negates the [n] coefficients and the rhs of
    the equality row written at [a.(off)] when its first non-zero
    coefficient is negative: the sign normalization {!to_key} applies
    to every equality row. *)

val pp : Format.formatter -> t -> unit
