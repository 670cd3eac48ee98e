(** A lock-striped memoization table shared live across domains.

    Same int-array keys, stored hashes, and paper hash function as
    {!Memo_table}: the table is an array of independent [Memo_table]
    stripes, each guarded by its own mutex, with the key's hash
    selecting the stripe. Lookups from different domains only contend
    when their keys land on the same stripe, so the paper's
    memoization win (section 5) is shared *during* a parallel run.

    Stripe selection uses a Fibonacci multiplicative mix of the stored
    hash: the per-stripe [Memo_table] buckets already consume the
    hash's low bits ([h mod nbuckets] with power-of-two bucket
    counts), so taking the stripe from those same bits would leave
    most buckets of every stripe permanently empty.

    Concurrency protocol (the recursion-safety discipline from
    [lib/cache/durable.ml]): [find_or_add] looks up under the stripe
    lock, but runs [compute] with no lock held — a full-table compute
    recurses into the gcd table, and holding a stripe lock across it
    would deadlock when both keys collide on a stripe. Two domains
    racing on the same key may thus both compute it; [Memo_table.add]
    replaces the binding, and computes are deterministic functions of
    the key, so the survivor is equivalent and [length] still counts
    the key once. A [compute] that raises stores nothing. *)

type 'a t

val create : ?stripes:int -> ?initial_buckets:int -> unit -> 'a t
(** [stripes] is rounded up to a power of two (default 32).
    [initial_buckets] is the per-stripe {!Memo_table.create} size. *)

val stripes : 'a t -> int
(** Actual (power-of-two) stripe count. *)

val find : 'a t -> int array -> 'a option
(** Locked lookup; counts a lookup (and hit) on the key's stripe. *)

val add : 'a t -> int array -> 'a -> unit
(** Locked insert; replaces any previous binding. Not counted as a
    lookup (mirrors {!Memo_table.add}) — the durable store's replay
    path uses this to warm the table without skewing hit rates. *)

val find_or_add : 'a t -> int array -> (unit -> 'a) -> 'a * bool
(** [(value, was_hit)]. Compute-outside-lock: see the module
    description for the race and recursion semantics. The key is not
    retained: on a miss it is copied before [compute] runs, so callers
    may pass a reusable scratch buffer. *)

val length : 'a t -> int
(** Total distinct keys across stripes (locks each stripe briefly). *)

val iter : (int array -> 'a -> unit) -> 'a t -> unit
(** Iterate all bindings, stripe by stripe, holding each stripe's lock
    while it is walked. [f] must not touch the table. Quiescent use
    only (spilling to disk, post-run merging into a plain table). *)

val stats : 'a t -> Memo_table.stats
(** Aggregated across stripes: sizes, bucket counts, lookups and hits
    summed. Every [find_or_add] counts exactly one lookup, so lookup
    totals are deterministic whenever the {e number} of [find_or_add]
    calls is (beware nested tables: the analyzer consults its gcd
    table only on full-table misses, so gcd traffic varies with hit
    timing); hit totals depend on cross-domain timing and are only
    deterministic at [--jobs 1]. Sizes are always the distinct-key
    count, whatever the racing. *)

val contended : 'a t -> int
(** Number of stripe-lock acquisitions that found the lock held
    ([Mutex.try_lock] failed and the caller had to block). Also
    surfaced process-wide as the [memo.stripe.contended] metrics
    counter. Scheduling-dependent by nature — never part of
    deterministic output. *)

val reset_counters : 'a t -> unit
(** Zero every stripe's lookup/hit counters and the contention
    count (bindings are kept). *)
