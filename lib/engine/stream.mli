(** The batch driver: bounded-memory analysis of a corpus on a
    {!Pool} of domains, with a write-ahead journal for crash/resume.

    A run {e pulls} items one at a time from a {!source} — files, whole
    directories, amplified {!Dda_perfect.Programs} suites, or the
    {!Dda_perfect.Fuzz} generator — lexes and parses each on a worker
    domain, and emits its rendered result as soon as every earlier
    item's result has been emitted. At most [2 * jobs] items are in
    flight, so peak memory is a function of [jobs] and the largest
    single item, never of corpus length. {!run_programs} drives the
    same machinery over programs the caller already parsed and
    collects their outcomes; {!Batch} is built on it.

    {b One front end per item.} Each item's {!Analyzer.front_end} is
    built once; the report, its verification and its lint summary all
    read that one value.

    {b Determinism.} By default items are analyzed independently,
    results are emitted in input order, and the per-item counters are
    per-corpus-item events, so output and metrics are byte-identical
    whatever [jobs] is. With [share_memo] every worker queries one
    live-shared lock-striped table pair ({!Analyzer.shared}) for the whole run: verdicts and
    direction vectors are unchanged at any [jobs], but per-item
    memo-{e hit} counts (and so the JSON renderings and the summary's
    hit totals) depend on cross-domain timing at [jobs > 1], and a
    resumed run re-analyzes its remaining items against a table that
    never saw the replayed ones — replayed chunks are still emitted
    byte-for-byte, and only hit counters can differ from a clean run.
    [share_memo] participates in the journal fingerprint.

    {b Journal.} With [journal], every completed item is appended to a
    JSONL write-ahead journal — its corpus position, name, a digest of
    its source text, its rendered output and flattened statistics —
    and the record is flushed and fsynced {e before} the output chunk
    is emitted, so a crash never acknowledges un-journaled work. With
    [resume], a valid journal's records are {e replayed}: each
    journaled item's stored output is re-emitted byte-for-byte (after
    re-deriving the item from the source and checking its text
    digest), analysis restarts at the first un-journaled item, and the
    final output is byte-identical to an uninterrupted run.

    A crash {e mid-append} (kill -9, power loss) can leave a torn
    final record; because the serializer escapes newlines inside JSON
    strings, torn is exactly "the final line has no terminating
    newline", and [resume] recovers it: the torn tail is truncated
    (with a warning), the intact prefix replays, and the dropped item
    is simply re-analyzed. Anything else — a complete record that
    fails to parse or fails its digest check, a torn or alien header,
    a journal written under a different configuration — is rejected
    with [Failure], never silently repaired: mid-file damage means the
    file is not the journal this corpus wrote.

    {b Fault isolation.} A worker exception on one item — an analyzer
    bug, an injected {!Dda_core.Failpoint} failure — never aborts the
    run: the item is retried with exponential backoff up to [retries]
    times and then {e quarantined}, its error recorded in its outcome
    while every other item completes normally. Parse and lexical
    errors quarantine immediately (the input is static; retrying
    cannot help). A per-item watchdog ([item_timeout_ms]) arms the
    budget's cooperative deadline, so a stuck item returns a degraded
    conservative report instead of hanging the run. *)

open Dda_core

(** {1 Sources} *)

type item = {
  name : string;  (** label carried through results and the journal *)
  text : unit -> string;
      (** produce the source text; called on a worker domain, and
          again (on the driver) when validating a resume — must be
          pure, or at least stable for the run's duration *)
}

type source = unit -> item option
(** A pull-based corpus: [None] means exhausted. Sources are stateful
    and single-consumer. *)

val of_files : string list -> source
(** One item per path, read lazily ([name] is the path). *)

val of_dir : string -> source
(** Every [*.dd] file directly under the directory, sorted by name.
    The directory is listed eagerly (so the corpus is fixed at
    creation); file contents are read lazily.
    @raise Sys_error when the directory cannot be read. *)

val of_perfect : ?amplify:int -> unit -> source
(** The synthetic PERFECT Club suite ({!Dda_perfect.Programs.all}),
    [amplify] (default 1) seed-shifted copies of each program; item
    [k] of program [P] is named [perfect:P:k] and generated on
    demand — the amplified corpus never exists in memory at once.
    @raise Invalid_argument when [amplify < 1]. *)

val of_fuzz :
  profile:Dda_perfect.Fuzz.profile -> seed:int -> int -> source
(** [of_fuzz ~profile ~seed n]: [n] fuzzed programs, item [i] named
    [fuzz:<profile>:<seed>:<i>] and generated on demand.
    @raise Invalid_argument when [n < 0]. *)

val concat : source list -> source
(** Items of each source in turn, left to right. *)

(** {1 Running} *)

(** One item's result, handed to the caller's renderer. *)
type outcome =
  | Analyzed of {
      name : string;
      report : Analyzer.report;
      verification : Dda_check.Verify.summary option;
      lint : Dda_analysis.Lint.result option;
          (** present when the stream ran with [lint] *)
      attempts : int;
    }
  | Quarantined of { name : string; attempts : int; error : string }

type summary = {
  total : int;  (** items emitted, replayed included *)
  replayed : int;  (** items satisfied from the journal *)
  retried : int;  (** items that needed more than one attempt *)
  quarantined : int;
  verify_errors : int;
      (** findings that drive a non-zero exit: certificate errors plus
          lint race errors, summed over all items (both are journaled,
          so a resumed run reports the same count as a clean one) *)
  interrupted : bool;
      (** [stop] ended the run before the source was exhausted;
          everything already in flight was finished and journaled *)
  merged : Analyzer.stats;  (** totals over successful items *)
}

val run :
  ?config:Analyzer.config ->
  ?share_memo:bool ->
  ?verify:bool ->
  ?lint:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?item_timeout_ms:int ->
  ?journal:string ->
  ?resume:bool ->
  ?stop:(unit -> bool) ->
  jobs:int ->
  render:(outcome -> string) ->
  emit:(string -> unit) ->
  source ->
  summary
(** Drive the corpus through [jobs] worker domains. [render] turns
    each result into the output chunk that is journaled and emitted;
    [emit] receives the chunks in input order (replayed chunks come
    from the journal, not from [render]).

    [verify] (default [false]) certificate-checks each item's report
    ({!Dda_check.Verify.verify_report}) and [lint] (default [false])
    summarizes its loops' parallelizability
    ({!Dda_analysis.Lint.of_report}), both on the item's worker
    domain. [retries] (default [1]) is how many times a failed item is
    retried before quarantine; [backoff_ms] (default [50]) the first
    retry's delay, doubled each further retry. [item_timeout_ms]
    (default none) arms each attempt's cooperative deadline: analysis
    past it degrades to a flagged conservative verdict rather than
    being killed.

    [journal] names the write-ahead journal; without [resume] it is
    truncated and started fresh. [resume] (default [false]) requires
    [journal] and replays it as described above.

    [stop] (default never) is polled between items: once it returns
    [true] no further item is pulled from the source, but everything
    already submitted is finished, journaled and emitted, the journal
    is flushed and fsynced, and the summary comes back with
    [interrupted = true] — the SIGINT path of [ddtest batch --stream],
    which leaves a journal a later [resume] continues from.

    @raise Invalid_argument on bad knob values, or [resume] without
    [journal].
    @raise Failure when resuming from an invalid or mismatched
    journal, or when the journal file cannot be written.
    @raise Dda_core.Failpoint.Injected from the [stream.journal]
    failpoint site (hit before each append — the crash-injection hook
    the chaos suite uses). *)

val run_programs :
  ?config:Analyzer.config ->
  ?shared:Analyzer.shared ->
  ?verify:bool ->
  ?lint:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?item_timeout_ms:int ->
  jobs:int ->
  (string * Dda_lang.Ast.program) list ->
  outcome list * summary
(** {!run} over named programs the caller already parsed, so no item
    is parsed twice; returns every item's outcome, in input order. The
    items have no source text to digest, so there is no journal. With
    [shared], every worker queries those live-shared tables, which the
    caller can inspect afterwards ({!Analyzer.shared_table_stats}).
    @raise Invalid_argument on bad knob values. *)

(** {1 Journal internals, exposed for tests} *)

val config_digest :
  ?lint:bool -> ?share_memo:bool -> Analyzer.config -> verify:bool -> string
(** The configuration fingerprint stored in the journal header.
    [lint] (default [false]) participates because it changes the
    rendered output, [share_memo] (default [false]) because it changes
    the journaled per-item memo statistics; with both off the digest
    matches journals written before either flag existed. *)

val journal_records : string -> int
(** Validate a journal file exactly as [resume] does and return the
    number of intact records (a torn final record is not counted, and
    the file is left untouched — only [resume] truncates).
    @raise Failure on any validation error. *)
