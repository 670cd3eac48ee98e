(** The paper's memoization hash table (section 5).

    A purpose-built open-hashing (chained) table over integer-vector
    keys with the paper's hash function [h(x) = size(x) + sum 2^i x_i]
    — chosen "so that symmetrical or partially symmetrical references
    would not collide". Keys are flat [int array]s (built once per
    query, no per-element boxing); each stored entry keeps its key's
    hash, so growing the table never rehashes keys.
    Grows by doubling when [length] exceeds {!load_factor} entries per
    bucket. *)

type 'a t

val load_factor : int
(** Mean chain length that triggers a doubling rehash (2). *)

val create : ?initial_buckets:int -> unit -> 'a t

val find : 'a t -> int array -> 'a option

val add : 'a t -> int array -> 'a -> unit
(** Replaces any previous binding of the key. *)

val find_or_add : 'a t -> int array -> (unit -> 'a) -> 'a * bool
(** [(value, was_hit)]; computes and stores on a miss. The key is
    hashed exactly once per call, and never retained: on a miss it is
    copied before [compute] runs, so callers may pass a reusable
    scratch buffer ({!Problem.to_key_scratch}). *)

val iter : (int array -> 'a -> unit) -> 'a t -> unit
(** Apply [f] to every stored binding, in unspecified order. The
    durable cache uses this to spill a table to disk; [f] must not
    mutate the table. *)

val length : 'a t -> int
(** Number of distinct keys stored. *)

val lookups : 'a t -> int
val hits : 'a t -> int
(** Lookup/hit counters for the memoization-effectiveness tables. *)

type stats = {
  size : int;  (** distinct keys stored *)
  buckets : int;  (** current bucket-array length *)
  lookups : int;
  hits : int;
}

val stats : 'a t -> stats
(** One-shot snapshot of occupancy and counter state, for reporting
    (e.g. [ddtest batch] output). *)

val reset_counters : 'a t -> unit

val hash_key : int array -> int
(** The paper's hash function, exposed for tests. *)
