(** The paper's memoization hash table (section 5).

    A purpose-built open-hashing (chained) table over integer-vector
    keys with the paper's hash function [h(x) = size(x) + sum 2^i x_i]
    — chosen "so that symmetrical or partially symmetrical references
    would not collide". Keys are flat [int array]s (built once per
    query, no per-element boxing); each stored entry keeps its key's
    hash, so growing the table never rehashes keys. The hash goes
    through a multiplicative mix before it picks a bucket: taken
    [mod] a power-of-two bucket count it would see only the key's
    length and first words.
    Grows by doubling when [length] exceeds {!load_factor} entries per
    bucket.

    The table is a store and counts nothing: memo lookups and hits
    are counted by their one caller, the analyzer, in its per-call
    statistics and the [memo.lookups]/[memo.hits] metrics. *)

type 'a t

val load_factor : int
(** Mean chain length that triggers a doubling rehash (2). *)

val create : ?initial_buckets:int -> unit -> 'a t

val find : 'a t -> int array -> 'a option
(** A quiet lookup: no failpoint, hit or miss. The key is not
    retained. *)

val add : 'a t -> int array -> 'a -> unit
(** Replaces any previous binding of the key. *)

val find_or_add : 'a t -> int array -> (unit -> 'a) -> 'a * bool
(** [(value, was_hit)]; computes and stores on a miss. The key is
    hashed exactly once per call, and never retained: on a miss it is
    copied before [compute] runs, so callers may pass a reusable
    scratch buffer ({!Problem.to_key_scratch}). *)

val probe : 'a t -> int array -> 'a option
(** {!find}, except that a hit passes the [memo.find_or_add] failpoint
    as {!find_or_add}'s hit does; a miss stays quiet. *)

val iter : (int array -> 'a -> unit) -> 'a t -> unit
(** Apply [f] to every stored binding, in unspecified order. The
    durable cache uses this to spill a table to disk; [f] must not
    mutate the table. *)

val length : 'a t -> int
(** Number of distinct keys stored. *)

val buckets : 'a t -> int
(** Current bucket-array length, exposed for tests of the growth. *)

val hash_key : int array -> int
(** The paper's hash function, exposed for tests. *)
