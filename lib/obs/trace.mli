(** A low-overhead span/event trace collector.

    Events accumulate in a per-domain ring buffer (registered lazily
    through domain-local storage, so worker domains spawned by the
    engine each get their own track); export renders Chrome
    [trace_event] JSON loadable in Perfetto, one track per domain.

    Collection is off by default and the off path is a single atomic
    load: instrumentation left in the hot analysis code costs nothing
    measurable when tracing is disabled (the bench harness checks the
    overhead stays under 2%).

    Timestamps come from {!Clock.now}, which is strictly increasing
    process-wide — so the events of any one track are strictly
    timestamp-ordered, a property the test suite asserts.

    The collector is a pure observer: nothing in the analysis reads it,
    so it sits outside the certificate checker's trusted base and can
    never affect verdicts. Args are integers only, keeping the whole
    subsystem allocation-light and deterministic to render. *)

type event = {
  name : string;
  ts : int;  (** span start (or instant time) *)
  dur : int;  (** span duration; [-1] marks an instant event *)
  tid : int;  (** domain id = Perfetto track *)
  args : (string * int) list;
}

val enable : unit -> unit
val disable : unit -> unit

val none : int
(** The sentinel {!start} returns while disabled. *)

val start : unit -> int
(** Begin a span: the current timestamp, or {!none} when disabled.
    Pass it to {!complete}; instrumentation can test it against
    {!none} to skip building args on the disabled path. *)

val complete : ?args:(string * int) list -> string -> int -> unit
(** [complete name t0] records the span begun at [t0] as a Chrome
    complete ("X") event on the calling domain's track. A [none] start
    (or tracing turned off meanwhile) records nothing. *)

val wrap : name:string -> args:('a -> (string * int) list) -> (unit -> 'a) -> 'a
(** [wrap ~name ~args f] runs [f] inside a span; [args] renders the
    result once the span closes. If [f] raises, the span closes with
    [("raised", 1)] and the exception continues. Disabled: calls [f]
    directly. *)

val instant : ?args:(string * int) list -> string -> unit
(** A zero-duration marker event. *)

val clear : unit -> unit
(** Drop every buffered event (all domains). *)

val events : unit -> event list
(** Everything buffered, sorted by (track, timestamp). *)

val dropped : unit -> int
(** Events lost to ring-buffer overflow since the last {!clear}. *)

val to_chrome_string : unit -> string
(** The buffered events as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...]}]) with per-track thread-name metadata.
    Load it at https://ui.perfetto.dev. *)

val write_chrome : string -> unit
(** Write {!to_chrome_string} to a file. *)
