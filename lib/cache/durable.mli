(** The durable, shareable memo cache: the analyzer's live-shared
    table pair ({!Dda_core.Analyzer.shared}) with optional
    write-through to a {!Store} file behind its own mutex.

    This is the backend [ddtest serve] plugs into the analyzer's
    pluggable {!Dda_core.Analyzer.cache} interface. It is safe to share
    across worker domains: lookups and insertions take only the key's
    stripe lock (domains contend per stripe, not globally; the
    append-only store, inherently serial, is the one shared mutex), and
    a miss's {e computation} runs with no lock held (it must — a
    full-table miss recursively queries the gcd table through the same
    cache). Two domains racing on the same key may therefore both
    compute it; the values are deterministic and equal, the table keeps
    one, and the duplicate store record is harmless (replay re-adds the
    same binding — [ddtest cache compact] rewrites them away). A
    computation that raises stores nothing.

    The cache keeps no lookup or hit counts: each analysis counts its
    own in its report ({!Dda_core.Analyzer.stats}) and in the
    process-wide [memo.lookups]/[memo.hits] metrics. What the cache
    reports is what it holds: {!table_sizes} and {!store_appends}. *)

type t

val create :
  ?path:string ->
  ?fsync:bool ->
  config:Dda_core.Analyzer.config ->
  unit ->
  t * Store.recovery option
(** Without [path], exactly {!Dda_core.Analyzer.create_shared}'s
    in-memory (but domain-shareable) tables, and [None]. With [path],
    opens the {!Store} there — replaying survivors into the tables and
    recovering per the cache-integrity invariant — and returns its
    {!Store.recovery}. [fsync] (default [true]) is passed through.
    @raise Failure on real I/O errors (see {!Store.open_store}). *)

val cache : t -> Dda_core.Analyzer.cache
(** The analyzer-facing view. Every miss computed through it is added
    to the tables and appended to the store (when present) before the
    query returns. Lookups hit the [memo.find_or_add] failpoint site,
    as every memo table does. Its [probe_full] is the shared tables'
    own: it never computes and never appends. *)

val table_sizes : t -> int * int
(** [(gcd_entries, full_entries)] currently held. *)

val store_path : t -> string option
val store_appends : t -> int
(** Records appended since open (0 for in-memory caches). *)

val close : t -> unit
(** Flush and close the store, if any. Idempotent; the in-memory
    tables stay usable. *)
