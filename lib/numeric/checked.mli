(** Native-int arithmetic that refuses to wrap.

    The range these accept is the native ints less [min_int]:
    [[-max_int, max_int]], symmetric, so every value in it can be
    negated. The optimizer prepass folds a constant only where these
    hold, and the interpreter raises where they fail, so both compute
    on the same integers and neither wraps. *)

val add_ok : int -> int -> bool
(** [x + y] is in range. *)

val sub_ok : int -> int -> bool
(** [x - y] is in range. *)

val mul_ok : int -> int -> bool
(** [x * y] is in range. *)
