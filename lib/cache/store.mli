(** The durable memo store: both memo tables' entries in one
    {!Record_log}, interleaved in append order, with magic
    ["%DDACACHE1\n"]. Each record's payload is the marshaled entry.

    The fingerprint is the MD5 of the marshaled pair
    ({!Dda_core.Analyzer.memo_format_version}, analyzer config):
    memo keys and values are both config- and version-dependent, so a
    file written under any other build or configuration must never be
    read as data.

    Integrity discipline (the cache-integrity invariant, see
    DESIGN.md): a record is delivered to the caller only if the file's
    magic and fingerprint both match {e and} the record's own digest
    matches its payload. Anything else degrades to a cold start —
    any damaged suffix, torn or corrupt, is truncated away (cache
    entries are independent, so a surviving prefix is always sound),
    and a header mismatch rejects the whole file (it is preserved as
    [path.rejected] for inspection). No failure mode can surface a
    wrong or stale verdict; the worst case is recomputation.

    With [fsync] (the default) every append is synced before it
    returns. *)

type t

type recovery = {
  fresh : bool;  (** the file did not exist (or was rejected) *)
  reset : string option;
      (** [Some reason]: an existing file failed the magic or
          fingerprint check and was moved to [path.rejected] *)
  records : int;  (** intact records delivered from the surviving prefix *)
  dropped_bytes : int;
      (** bytes discarded behind the last intact record (torn tail or
          a corrupt record and everything after it) *)
}

val fingerprint : Dda_core.Analyzer.config -> string
(** The header fingerprint for a configuration (16 raw bytes). *)

val open_store :
  ?fsync:bool ->
  path:string ->
  config:Dda_core.Analyzer.config ->
  gcd:(int array -> Dda_core.Gcd_test.outcome -> unit) ->
  full:(int array -> Dda_core.Analyzer.outcome -> unit) ->
  unit ->
  t * recovery
(** Open (creating if needed) the store at [path], validate the
    header against [config], replay every intact record through the
    [gcd]/[full] callbacks, truncate any damaged suffix, and return
    the store opened for appending. [fsync] (default [true]) syncs
    every append. Failpoint site: [cache.open].
    @raise Failure when the file cannot be created, read or written
    (an I/O error, not a corruption — corruption recovers). *)

val append_gcd : t -> int array -> Dda_core.Gcd_test.outcome -> unit
val append_full : t -> int array -> Dda_core.Analyzer.outcome -> unit
(** Append one record (write-through from a memo miss). Failpoint
    sites: [cache.append] before the frame, [cache.append.mid] between
    the frame header and the payload — a [kill] there leaves exactly
    the torn tail recovery must absorb. *)

val flush : t -> unit
(** fsync the file. Failpoint site: [cache.flush]. *)

val close : t -> unit
(** [flush] and close the descriptor. Idempotent. *)

val path : t -> string
val appends : t -> int
(** Records appended through this handle (not counting replayed ones). *)

(** What {!compact} did, for reporting. *)
type compaction = {
  before_records : int;  (** intact records in the original file *)
  after_records : int;  (** records written: one per distinct key *)
  before_bytes : int;
  after_bytes : int;
  damaged_bytes : int;
      (** torn/corrupt suffix bytes discarded (replay would have
          dropped them too) *)
}

val compact :
  ?fsync:bool ->
  path:string ->
  config:Dda_core.Analyzer.config ->
  unit ->
  compaction
(** Rewrite the store at [path] keeping the {e last} binding of every
    key (exactly the state replay reconstructs — duplicate appends
    from racing domains, and any superseded bindings, are dropped).
    The survivors are written to a fresh temporary file with the same
    magic and fingerprint, fsynced ([fsync], default [true]), and
    atomically renamed over the original: a crash leaves either the
    old file or the complete new one. The store must not be open for
    appending elsewhere during compaction (appends racing the rename
    would land in the doomed file).
    @raise Failure when the file is missing or unreadable, or its
    header does not match [config] — the file is left untouched
    (unlike {!open_store}, which quarantines and starts cold). *)
