(** Brute-force dependence oracle built on the interpreter trace.

    This is the ground truth the exact analyzer is validated against:
    for a pair of reference sites it reports whether any two traced
    accesses touch the same array cell, and the exact set of direction
    and distance vectors over the sites' common loops. *)

type direction =
  | Lt  (** first reference's iteration earlier:  i < i' *)
  | Eq
  | Gt

val compare_direction : direction -> direction -> int

type observation = {
  dependent : bool;
  directions : direction list list;
      (** every distinct direction vector observed, each of length
          [number of common loops]; sorted, no duplicates *)
  distances : int list list;
      (** every distinct distance vector observed (second iteration
          minus first, per common loop); sorted, no duplicates *)
}

val common_loops : Interp.access -> Interp.access -> string list
(** Longest common prefix of the two accesses' loop-variable stacks. *)

type run
(** One execution of a program, its accesses indexed by reference site
    and, per site, by the array cell they touch. Pair queries over one
    [run] cost the two sites' accesses, not their product. *)

val execute : ?fuel:int -> ?inputs:(string * int) list -> Ast.program -> run
(** Runs the program once ({!Interp.iter}, keeping the array
    accesses, with the same arguments and the same [Runtime_error]s). *)

val observe_in : run -> site1:Loc.t -> site2:Loc.t -> observation
(** The dependence ground truth between two reference sites of the
    run, as {!observe} defines it. *)

val dependent_in : run -> site1:Loc.t -> site2:Loc.t -> bool
(** [(observe_in run ~site1 ~site2).dependent], without building the
    direction and distance vectors. *)

val observe :
  ?fuel:int ->
  ?inputs:(string * int) list ->
  Ast.program ->
  site1:Loc.t ->
  site2:Loc.t ->
  observation
(** Runs the program and reports the dependence ground truth between
    the two reference sites: [observe_in (execute prog)]. When [site1 = site2], only pairs of
    {e distinct} iterations count (a reference trivially overlaps
    itself); for distinct sites identical iterations count too, as in
    the paper's problem statement. *)

val all_site_pairs : Ast.program -> (Loc.t * Loc.t * string) list
(** All candidate pairs to test: pairs of reference sites on the same
    array where at least one side is a write (including each write
    paired with itself). The third component is the array name. *)
