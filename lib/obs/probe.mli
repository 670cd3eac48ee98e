(** One instrumented layer's telemetry, declared once.

    A probe is a static descriptor per layer (a solver stage, the
    cascade, a dependence pair). {!run} fans one call out to every
    sink, so the layer has one call site and the sinks cannot disagree:

    - {!Metrics}: the calls counter is bumped before the call; after a
      normal return, each field bumps the counter its value selects;
    - {!Trace}: one span encloses the call, its args the fields' values
      (then the call's own), or [("raised", 1)] if the call raises;
    - {!Attrib}: a stage's probe runs the call inside {!Attrib.time},
      nested in the span, so an open window is charged on return and
      on raise.

    A probe returns the call's result and re-raises its exception
    unchanged. *)

type 'a field

val field : ?counters:string list -> string -> ('a -> int) -> 'a field
(** [field ~counters name value]: the span arg [name], valued
    [value result]. A value [i] bumps the [i]-th of [counters] (from
    0); values past the end are counted nowhere. *)

type 'a t

val make : span:string -> calls:string -> 'a field list -> 'a t
(** A probe without an attribution stage; span args follow the field
    order. *)

val stage : span:string -> Attrib.stage -> ('a -> int) -> 'a t
(** [stage ~span s verdict]: a solver stage's probe, charging [s]. Its
    counters are [test.<s>.calls] ({!Attrib.stage_name}) and, for
    verdict 0 (independent), [test.<s>.independent]. *)

val run : ?args:('a -> (string * int) list) -> 'a t -> (unit -> 'a) -> 'a
(** [run ?args p f] is [f ()], observed by every sink of [p]. [args]
    adds span args after the fields'; it runs only while tracing. *)
