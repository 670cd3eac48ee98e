(** The whole-program dependence analyzer: optimizer prepass, affine
    extraction, pair enumeration, memoized cascaded testing, and
    direction/distance vectors — the full pipeline the paper evaluates
    on the PERFECT Club. *)

open Dda_numeric
open Dda_lang

type memo_mode =
  | Memo_off
  | Memo_simple  (** exact-match memoization (paper's simple scheme) *)
  | Memo_improved
      (** with unused loop variables eliminated before keying (paper's
          improved scheme) *)
  | Memo_symmetric
      (** improved, plus the paper's "symmetrical cases" optimization:
          a pair and its mirror image ([a\[i\]] vs [a\[i-1\]] /
          [a\[i-1\]] vs [a\[i\]]) share one entry, with direction
          vectors and distances mirrored on retrieval *)

type config = {
  symbolic : bool;  (** treat loop-invariant unknowns as variables (s8) *)
  memo : memo_mode;
  directions : bool;  (** compute direction/distance vectors (s6) *)
  prune : Direction.prune;
  fm_tighten : bool;
  run_pipeline : bool;  (** run the optimizer prepass first *)
  within_nest_only : bool;
      (** only pair references that share at least one enclosing loop
          (the loop-parallelization use case, and what the paper's
          per-program counts measure); [false] additionally tests
          cross-nest pairs *)
  limits : Budget.limits;
      (** per-query resource caps; exhaustion degrades to a flagged
          assumed-dependent verdict, never an exception or a hang.
          Pure data (no callbacks): the config is marshaled into the
          durable cache's fingerprint — pass a watchdog via [?cancel]
          instead. *)
}

val default_config : config
(** Symbolic on, improved memoization, directions on with full pruning,
    paper-faithful Fourier-Motzkin, optimizer prepass on. *)

type outcome =
  | Constant of bool
      (** both references' subscripts are constants; the bool is
          "dependent" (equal) — handled without dependence testing *)
  | Assumed_dependent  (** not affine: conservatively dependent *)
  | Gcd_independent  (** the bounds-free equalities already fail *)
  | Tested of {
      dependent : bool;
      unknown : bool;  (** true when assumed dependent by exhaustion *)
      decided_by : Cascade.test option;
          (** the deciding test of the plain query ([None] when memoized
              direction refinement answered without a plain query) *)
      directions : Direction.dir array list;
          (** over the pair's common loops (empty unless [directions]) *)
      distance : Zint.t array option;
      implicit_bb : bool;
      degraded : Budget.reason option;
          (** the query's {!Budget} ran out: [dependent], [directions]
              and [distance] are a sound {e over}-approximation of the
              exact answer (assume dependent, all directions possible at
              unrefined levels), and no exactness claim — in particular
              [implicit_bb] — is made. [unknown] is also true. *)
    }

type pair_report = {
  array_name : string;
  loc1 : Loc.t;
  loc2 : Loc.t;
  stmt1 : Loc.t;  (** statement enclosing the first reference *)
  stmt2 : Loc.t;
  role1 : [ `Read | `Write ];
  role2 : [ `Read | `Write ];
  self_pair : bool;
  ncommon : int;
  common_ids : int list;  (** loop ids of the common loops, outermost first *)
  enclosing_ids1 : int list;  (** all loop ids enclosing the first site *)
  enclosing_ids2 : int list;
  outcome : outcome;
}

type dep_kind =
  | Flow  (** write then read *)
  | Anti  (** read then write *)
  | Output  (** write then write *)
  | Input  (** read then read (never produced for tested pairs) *)

val dep_kind_name : dep_kind -> string
(** ["flow" | "anti" | "output" | "input"]. *)

val pp_dep_kind : Format.formatter -> dep_kind -> unit

val vector_kind : pair_report -> Direction.dir array -> dep_kind
(** Classify one direction vector of a dependent pair: the source is
    the reference whose instance executes first ({!Direction.lead}
    decides; an all-[=] vector is loop-independent and the textually
    earlier reference — the first — is the source). A leading ["*"] is
    ambiguous and classified as if the first reference were the
    source. *)

type stats = {
  mutable pairs : int;
  mutable constant_cases : int;
  mutable gcd_independent : int;
  mutable assumed : int;
  mutable plain_by_test : int array;  (** length 4, indexed like {!Direction.counts} *)
  dir_counts : Direction.counts;
  mutable implicit_bb_cases : int;
  mutable degraded_pairs : int;
      (** pairs whose verdict is a budget-degraded over-approximation *)
  mutable independent_pairs : int;
  mutable dependent_pairs : int;
  mutable vectors_reported : int;
  mutable memo_lookups_nobounds : int;
  mutable memo_hits_nobounds : int;
  mutable memo_unique_nobounds : int;
  mutable memo_lookups_full : int;
  mutable memo_hits_full : int;
  mutable memo_unique_full : int;
}

val fresh_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Field-wise accumulation of the second statistics record into the
    first, {!Direction.counts} included. Memo counters are summed too:
    when each record comes from an independent analysis (its own memo
    tables), the sums are the corpus totals; when records share one
    cache, sum the per-call lookups/hits but take unique-entry counts
    from the cache's tables (see {!shared_table_stats}), since each
    per-call value is already cumulative. *)

val stats_to_list : stats -> int list
(** Every field flattened into a fixed-order integer list — a stable,
    version-checked wire form for the streaming batch journal.
    [stats_of_list (stats_to_list s)] restores an equal record. *)

val stats_of_list : int list -> stats option
(** Inverse of {!stats_to_list}; [None] when the list has the wrong
    arity (e.g. a journal written by an incompatible build). *)

type report = {
  pair_reports : pair_report list;
  stats : stats;
}

(** {1 The pluggable memo cache}

    The analyzer is a pure query layer over this interface: every
    memoized lookup (the bounds-free gcd table and the full canonical
    table) goes through one [cache] record, so the backend can be a
    pair of fresh in-process tables (the default), the live-shared
    tables of a parallel batch ({!shared}), or a write-through durable
    store ([Dda_cache], behind [ddtest serve], [analyze --memo-file]
    and [prime]). Keys are the canonical problem keys
    ({!Problem.to_key} / {!Problem.key_without_bounds}); whoever
    persists them must fingerprint the {!config} and
    {!memo_format_version}, since both determine key and value
    compatibility. *)

type cache = {
  find_or_add_gcd :
    int array -> (unit -> Gcd_test.outcome) -> Gcd_test.outcome * bool;
      (** [(value, was_hit)]; must compute and store on a miss, and
          store nothing when [compute] raises. The analyzer passes
          scratch-buffer keys ({!Problem.to_key_scratch}) that later
          lookups overwrite: an implementation that retains the key
          must copy it {e before} invoking [compute] (nested lookups
          during [compute] reuse the buffer) *)
  find_or_add_full : int array -> (unit -> outcome) -> outcome * bool;
  cache_sizes : unit -> int * int;
      (** [(gcd, full)] entries: the report's unique counts *)
  cache_flush : unit -> unit;
      (** push write-through state to stable storage (no-op for
          in-memory backends) *)
}

val memory_cache : unit -> cache
(** A fresh pair of in-process {!Memo_table}s — the backend {!analyze}
    uses when no cache is supplied. Not safe to share across domains
    without external locking. *)

type shared = {
  sh_gcd : Gcd_test.outcome Sharded_table.t;
  sh_full : outcome Sharded_table.t;
}
(** One gcd + one full lock-striped {!Sharded_table} pair, safe to
    query live from every worker domain of a parallel run: a
    cross-item repeat is a hit the moment any domain has computed
    it. The durable cache ([Dda_cache.Durable]) is this pair plus a
    store that replays into it and appends its misses. *)

val create_shared : ?stripes:int -> unit -> shared

val shared_cache : shared -> cache
(** The shared tables as a {!cache}. [cache_sizes] counts every
    domain's entries; wrap the cache in {!counted_cache} per item for
    per-item unique counts. *)

val counted_cache : cache -> cache
(** Wrap a cache so that [cache_sizes] counts this wrapper's completed
    misses: one item's unique counts over a shared backend. (Lookups
    and hits are always counted per call by the analyzer itself.) The
    wrapper is not itself domain-safe — one wrapper per item. *)

val shared_table_stats : shared -> Memo_table.stats * Memo_table.stats
(** [(gcd, full)] aggregated over stripes. Sizes (distinct problems)
    are jobs-invariant, as are full-table lookup totals; gcd lookup
    and all hit totals depend on cross-domain timing and are only
    deterministic at [--jobs 1]. *)

val memo_format_version : int
(** Version of the marshaled memo key/value representation. Durable
    cache backends include it in their header fingerprint: a cache
    written by an incompatible build must read as a cold start, never
    as data. *)

val analyze :
  ?config:config -> ?cancel:(unit -> bool) -> ?cache:cache -> Ast.program -> report
(** Analyze a whole program: {!analyze_sites} over the pairs of its
    {!front_end}. Pairs are every (textually ordered) pair
    of same-array references with at least one write, including each
    write against itself (whose identical-iteration solution is
    excluded, so a self pair is dependent only when distinct iterations
    collide).

    Memoization across compilations (the paper's suggestion, as is
    priming a standard table from a benchmark suite) is a persistent
    [cache]: [ddtest analyze --memo-file] and [ddtest prime] pass a
    [Dda_cache.Durable] store. The report's memo lookups and hits are
    this call's own, counted by the call even while other queries use
    the same cache; unique counts are the tables' sizes. Degraded
    verdicts are memoized like any other (they are deterministic under
    the step/row/coefficient caps); a [Deadline]-degraded verdict,
    however, depends on wall time, so a cache kept across runs with
    watchdogs can hold a verdict a later run would have refined.

    Domain safety: every piece of mutable state ([stats], memo tables,
    pass-internal accumulators) lives in values created per call or in
    the [cache] passed in — the analyzer keeps no module-level mutable
    globals — so concurrent [analyze] calls are safe from different
    domains. A {!memory_cache} must not be shared across domains;
    cross-domain sharing goes through a {!shared} cache
    ([Dda_engine.Batch]'s live mode) or a [Dda_cache.Durable] one.

    [cancel] is a cooperative watchdog polled by the per-query budget
    every few dozen solver steps; returning [true] degrades the current
    pair (reason [Deadline]) and every later one. The batch engine uses
    it to bound per-item wall time without killing domains. *)

val site_pairs :
  config -> Affine.site list -> (Affine.site * Affine.site) list
(** The pair enumeration {!analyze} performs after extraction: every
    textually ordered pair of same-array references with at least one
    write (self pairs only for writes, and only when [directions] is
    on), filtered by [within_nest_only], in textual (first, second)
    order. Sites are grouped by array, so the cost is linear in sites
    plus pairs considered, not quadratic in sites. Under
    [within_nest_only] each top-level nest is grouped on its own
    (sites as {!Affine.extract} orders them: one nest's sites
    contiguous, nests in id order; any other order falls back to one
    program-wide grouping, same output), so only pairs inside one nest
    are ever considered. In the library only {!front_end} calls it;
    it is exposed for the benchmark harnesses, which time it on its
    own. *)

(** {1 The front end} *)

type front = private {
  source : Ast.program;  (** the program as given *)
  prepared : Ast.program;
      (** [source] after the optimizer prepass ({!Dda_passes.Pipeline.run})
          when [run_pipeline] is on; [source] itself ([==]) when off *)
  sites : Affine.site list;  (** [Affine.extract ~symbolic prepared] *)
  pairs : (Affine.site * Affine.site) list;
      (** [site_pairs config sites]: the pairs a report is computed
          from, in report order *)
}
(** What every analysis, verification and lint summary of one program
    reads. Private: a [front] only comes from {!front_end}, so its
    fields always agree. Certificates cover the problems built from
    [pairs]; the prepass from [source] to [prepared] is outside what
    they check. *)

val front_end : config -> Ast.program -> front
(** The prepass (per [run_pipeline]), extraction (per [symbolic]) and
    pair enumeration (per [within_nest_only] and [directions]) of one
    program, each run once. *)

val analyze_sites :
  ?config:config ->
  ?cancel:(unit -> bool) ->
  ?cache:cache ->
  (Affine.site * Affine.site) list ->
  report
(** Analyze explicit site pairs: the [pairs] of a {!front_end}, so the
    report, its verification and its lint summary read one front (the
    benchmark harnesses also pass pairs they enumerate and time
    themselves). *)
