(** Reference interpreter with memory-access tracing.

    Runs a program and reports every access, array and scalar, with
    its site, concrete indices, enclosing loop iterations and global
    timestamp. The trace is the {e ground truth} the analyzer is tested
    against: two references are dependent exactly when their traced
    accesses overlap in memory. *)

exception Runtime_error of string * Loc.t

type frame = {
  var : string;
  value : int;
  loop : Loc.t;  (** the [for] statement *)
  instance : int;  (** which of the [for] statements started so far *)
}
(** One iteration of an enclosing loop. *)

type access = {
  array : string;  (** the array, or the scalar *)
  indices : int list;  (** [[]] for a scalar: arrays have subscripts *)
  role : [ `Read | `Write ];
  site : Loc.t;
      (** the reference, its identity; a [for] header writes its
          variable at the start of each iteration *)
  frames : frame list;  (** innermost first *)
  time : int;  (** global execution order *)
}

val iter :
  ?fuel:int -> ?inputs:(string * int) list -> (access -> unit) -> Ast.program -> unit
(** [iter f prog] executes the program with all memory initially zero
    and calls [f] on every access as it happens. [inputs] supplies the
    values produced by [read] statements (a missing input defaults to
    0). [fuel] bounds the number of statement executions (default:
    unlimited).

    Arithmetic is exact or fails: values are the native ints less
    [min_int] ({!Dda_numeric.Checked}'s range, the one the optimizer
    prepass folds in), and an operation or trip count whose exact
    result leaves that range raises
    [Runtime_error ("integer overflow", loc)] instead of wrapping.
    @raise Runtime_error on division by zero, integer overflow or fuel
    exhaustion. *)

val run : ?fuel:int -> ?inputs:(string * int) list -> Ast.program -> access list
(** The array accesses {!iter} sees, in execution order. *)

type state = {
  scalars : (string * int) list;  (** sorted by name *)
  memory : ((string * int list) * int) list;
      (** sorted by cell; zero-valued cells that were never written are
          absent *)
}

val final_state :
  ?fuel:int -> ?inputs:(string * int) list -> Ast.program -> state * access list
(** Runs the program and returns both the final machine state and
    {!run}'s trace — the observables that optimizer passes must
    preserve. *)
