(** The in-memory batch driver: analyze a corpus of already-parsed
    programs and hand back every item's outcome, in input order, with
    the corpus totals.

    [run] is {!Stream.run_programs}, so scheduling, retries,
    quarantine, the per-item watchdog, verification and linting are
    exactly {!Stream}'s, and so
    is its determinism contract: in the default mode reports and merged
    statistics are byte-identical whatever [jobs] is. The one thing
    this module adds is the [share_memo] accounting below.

    {b Shared memo tables.} With [share_memo] every worker queries one
    {e live-shared} lock-striped table pair ({!Analyzer.shared}) for the
    whole corpus: verdicts, direction vectors and distinct-problem
    counts are unchanged at any [jobs] — memoization never alters
    answers — but memo-{e hit} counters (and the gcd-table traffic,
    which only happens on full-table misses) depend on cross-domain
    timing, so they are only deterministic at [--jobs 1]. Because the
    whole corpus is in hand, the merged distinct-problem counts are
    the shared tables' sizes, and [table_stats] reports the tables.
    The independent mode is the oracle for the shared one: same
    verdicts, direction vectors and distances item by item. *)

open Dda_lang
open Dda_core

type item = {
  name : string;  (** label carried through to the result, e.g. a file name *)
  program : Ast.program;
}

type result = {
  outcomes : Stream.outcome list;  (** one per item, in input order *)
  summary : Stream.summary;
      (** corpus totals; [merged] covers the analyzed items only *)
  table_stats : (Memo_table.stats * Memo_table.stats) option;
      (** with [share_memo]: [(gcd, full)] {!Dda_core.Memo_table.stats}
          of the corpus-wide live-shared tables, aggregated over
          stripes. [None] in the independent mode. *)
}

val run :
  ?config:Analyzer.config ->
  ?share_memo:bool ->
  ?verify:bool ->
  ?lint:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?item_timeout_ms:int ->
  jobs:int ->
  item list ->
  result
(** Analyze the corpus on [jobs] domains. [share_memo] defaults to
    [false] (the fully [jobs]-independent mode); when set, workers
    share the memo tables live and [summary.merged]'s unique counts
    are the shared tables' sizes. The other knobs are
    {!Stream.run}'s.
    @raise Invalid_argument when [jobs < 1], [retries < 0] or
    [backoff_ms < 0]. *)
