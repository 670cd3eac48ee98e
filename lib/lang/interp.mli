(** Reference interpreter with memory-access tracing.

    Runs a program and records every array access (reference site,
    concrete indices, enclosing iteration vector, global timestamp).
    The trace is the {e ground truth} the dependence analyzer is tested
    against: two references are dependent exactly when their traced
    accesses overlap in memory. *)

exception Runtime_error of string * Loc.t

type access = {
  array : string;
  indices : int list;
  role : [ `Read | `Write ];
  site : Loc.t;  (** location of the reference, its identity *)
  iter : (string * int) list;  (** enclosing loop variables, outermost first *)
  time : int;  (** global execution order *)
}

val run : ?fuel:int -> ?inputs:(string * int) list -> Ast.program -> access list
(** Executes the program with all memory initially zero. [inputs]
    supplies the values produced by [read] statements (a missing input
    defaults to 0). [fuel] bounds the number of statement executions
    (default: unlimited). Returns the access trace in execution order.

    Arithmetic is exact or fails: values are the native ints less
    [min_int] ({!Dda_numeric.Checked}'s range, the one the optimizer
    prepass folds in), and an operation, trip count or loop-variable
    step whose exact result leaves that range raises
    [Runtime_error ("integer overflow", loc)] instead of wrapping.
    @raise Runtime_error on division by zero, integer overflow or fuel
    exhaustion. *)

val scalar_value : ?inputs:(string * int) list -> Ast.program -> string -> int option
(** Runs the program and reports the final value of a scalar, for
    tests. *)

type state = {
  scalars : (string * int) list;  (** sorted by name *)
  memory : ((string * int list) * int) list;
      (** sorted by cell; zero-valued cells that were never written are
          absent *)
}

val final_state :
  ?fuel:int ->
  ?inputs:(string * int) list ->
  ?reorder:(Loc.t -> int -> int array option) ->
  Ast.program ->
  state * access list
(** Runs the program and returns both the final machine state and the
    access trace — the observables that optimizer passes must
    preserve.

    [reorder] is the iteration-order hook the parallelism lint's
    differential check uses: it is called once per dynamic execution of
    each [for] statement with the loop's source location and trip
    count [n], and may return a permutation of [0, n)] to execute in
    place of sequential order (return [None] for sequential). A loop
    whose iterations are independent must produce the same final
    memory under any permutation.
    @raise Runtime_error when a returned permutation's length is not
    the trip count. *)
