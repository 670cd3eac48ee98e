(** A lock-striped memoization table shared live across domains.

    Same int-array keys, stored hashes, and paper hash function as
    {!Memo_table}: the table is an array of independent [Memo_table]
    stripes, each guarded by its own mutex, with the key's hash
    selecting the stripe. Lookups from different domains only contend
    when their keys land on the same stripe, so the paper's
    memoization win (section 5) is shared *during* a parallel run.

    Stripe selection takes the top bits of a Fibonacci multiplicative
    mix of the stored hash: the per-stripe [Memo_table] buckets come
    from another mix's low bits, so taking the stripe from bits the
    bucket also reads would leave most buckets of every stripe
    permanently empty.

    Concurrency protocol: [find_or_add] looks up under the stripe
    lock, but runs [compute] with no lock held — a full-table compute
    recurses into the gcd table, and holding a stripe lock across it
    would deadlock when both keys collide on a stripe. Two domains
    racing on the same key may thus both compute it; [Memo_table.add]
    replaces the binding, and computes are deterministic functions of
    the key, so the survivor is equivalent and [length] still counts
    the key once. A [compute] that raises stores nothing.

    Like {!Memo_table}, the table counts no lookups or hits (the
    analyzer does). Its one instrument is a lock fact only it can see:
    the process-wide [memo.stripe.contended] counter of stripe
    acquisitions that had to block. Scheduling-dependent by nature,
    it is never part of deterministic output. *)

type 'a t

val create : ?stripes:int -> unit -> 'a t
(** [stripes] is rounded up to a power of two (default 32). *)

val stripes : 'a t -> int
(** Actual (power-of-two) stripe count. *)

val probe : 'a t -> int array -> 'a option
(** {!Memo_table.probe} on the key's stripe, which it takes once:
    quiet on a miss (no failpoint, no [on_miss]); a hit passes the
    [memo.find_or_add] failpoint as a {!find_or_add} hit does, with no
    stripe lock held. *)

val add : 'a t -> int array -> 'a -> unit
(** Locked insert; replaces any previous binding. The durable store's
    replay path uses this to warm the table. *)

val find_or_add :
  ?on_miss:(int array -> 'a -> unit) ->
  'a t -> int array -> (unit -> 'a) -> 'a * bool
(** [(value, was_hit)]. Compute-outside-lock: see the module
    description for the race and recursion semantics. The key is not
    retained: on a miss it is copied before [compute] runs, so callers
    may pass a reusable scratch buffer. [on_miss] receives the copied
    key and the computed value once they are in the table, with no
    stripe lock held (the durable cache appends them to its store);
    its exceptions propagate. *)

val length : 'a t -> int
(** Total distinct keys across stripes (locks each stripe briefly). *)

val iter : (int array -> 'a -> unit) -> 'a t -> unit
(** Iterate all bindings, stripe by stripe, holding each stripe's lock
    while it is walked. [f] must not touch the table. Quiescent use
    only (spilling to disk, post-run merging into a plain table). *)
