(** Minimal JSON emission (strings, numbers, booleans, arrays,
    objects) and the analyzer report rendered as JSON — enough for
    tooling to consume analysis results without scraping text — plus a
    parser for exactly the subset this module emits, so the batch
    journal, the server and the bench harness can read JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Written in [%g] form with 15 to 17 significant digits, the
          fewest that read back exactly, and always with a fraction or
          an exponent (["1.0"], ["0.1"], ["1e+20"]), so it never reads
          back as an [Int]. A NaN or an infinity is written as
          [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** JSON already rendered in compact form, as {!to_string} would
          render it: a direct writer's output ({!report}'s pair list,
          the linter's summary) embedded in a tree without being built
          as one. {!write} copies it as is; {!of_string} never
          produces it. *)

val to_string : t -> string
(** Compact rendering with correct string escaping, written through
    {!render}'s buffer. [to_string (Raw s)] is [s] itself. *)

val to_line : t -> string
(** [to_string j ^ "\n"], rendered in one pass through {!render}'s
    buffer: one line of a JSON-lines stream. *)

val write : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val write_string : Buffer.t -> string -> unit
(** [write buf (Str s)]: a quoted, escaped string literal. *)

val write_int : Buffer.t -> int -> unit
(** [write buf (Int n)]. *)

val write_bool : Buffer.t -> bool -> unit
(** [write buf (Bool b)]. *)

val write_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** A JSON array of the items, each written by the given writer. *)

val render : (Buffer.t -> unit) -> string
(** [render write] runs [write] on an empty buffer and returns what it
    wrote. The buffer is this domain's render buffer, kept between
    calls, so a rendering does not regrow a buffer from 4 KB each
    time: once the buffer is large enough, the returned string is the
    only allocation of the buffer's own. A rendering longer than
    512 KB is not kept (the buffer goes back to 4 KB after the call),
    so an idle domain keeps at most 512 KB. Re-entry is allowed: a [write]
    that calls [render] itself (directly or through {!report} or
    another direct writer) gets a fresh buffer for the inner call, and
    the outer text is unaffected. [write] must not keep the buffer
    past its return. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering. A [Raw s] is parsed with {!of_string} and the
    result printed, so [pp] prints a tree holding [Raw (to_string j)]
    exactly as it prints the same tree holding [j]. *)

val of_string : string -> (t, string) result
(** Parse the subset of JSON this module emits. A number with neither
    a fraction nor an exponent is an [Int]; any other is a [Float].
    Round-trips {!to_string} on every tree without [Raw] whose floats
    are finite: [of_string (to_string j) = Ok j]. A tree with [Raw]
    parses back as the same tree with each [Raw s] replaced by the
    tree [s] denotes. The error carries a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k]; [None] when
    absent or when the value is not an object. *)

val report : Analyzer.report -> t
(** The whole report: {!pairs} plus the statistics block, as
    [Obj [("pairs", Raw _); ("stats", _)]]. *)

val pairs : Analyzer.pair_report list -> t
(** The pair list, one object per pair (locations, roles, outcome,
    direction vectors with dependence kinds, distance), written
    straight into the {!render} buffer and returned as [Raw]: byte for
    byte what [List (List.map pair prs)] renders to. *)

val pair : Analyzer.pair_report -> t
(** One pair object built as a tree: the reference {!pairs} is tested
    against, and a tree that tests can edit. *)

val stats : Analyzer.stats -> t
(** The statistics block alone (used for the batch driver's merged
    corpus statistics). *)

val metrics : Dda_obs.Metrics.snapshot -> t
(** A metrics-registry snapshot: counters as a name-keyed object,
    histograms as [{count, sum, buckets: [[lo, n], ...]}]. *)
