(** Per-query stage attribution: where did this request's time go?

    The cascade's claim (paper Tables 1/3/4) is that cheap stages
    answer almost everything and the expensive ones run rarely; a
    live server wants that escalation profile visible {e per request},
    not only as process-wide counters. This module is a scoped,
    per-domain collector: the serve daemon opens a {!collect} window
    around one analysis call, each solver stage's {!Probe} charges the
    stage's calls and wall time into it (the probe runs the stage
    inside {!time}), and the window's {!snapshot} becomes the
    response's ["explain"] block.

    Like {!Trace}, the collector is a pure observer and is never
    load-bearing: nothing in the analysis reads it, and the inactive
    path — no window open anywhere in the process — is a single atomic
    load (the bench harness holds the admin plane to the same <2%
    overhead gate as disabled trace spans). Collection is per-domain
    (domain-local storage), so concurrent requests on different worker
    domains attribute independently; a domain has at most one open
    window. *)

type stage =
  | Gcd  (** Extended-GCD equality preprocessing *)
  | Svpc
  | Acyclic
  | Loop_residue
  | Fourier

val stage_name : stage -> string
(** ["gcd"], ["svpc"], ["acyclic"], ["loop_residue"], ["fourier"]. *)

val all_stages : stage list
(** In cascade order, cheapest first. *)

type stage_stat = {
  calls : int;  (** times the stage ran inside the window *)
  ns : int;  (** total wall time charged, in time-source units *)
}

type snapshot = {
  stages : (stage * stage_stat) list;  (** in {!all_stages} order *)
  budget_steps : int;  (** solver steps spent by executed queries *)
}

val set_time_source : (unit -> int) -> unit
(** Replace the stage timer. The default is {!Clock.now} (the
    deterministic tick counter unless a front end installed a real
    source), so unit tests see exact, reproducible "durations". The
    serve daemon installs a nanosecond wall clock. *)

val time : stage -> (unit -> 'a) -> 'a
(** Run a stage, charging its wall time and one call to the calling
    domain's open window. Without an open window this is [f ()] after
    one atomic load. If [f] raises, the time is still charged. *)

val add_steps : int -> unit
(** Charge solver steps (a {!Budget} account's final reading) to the
    calling domain's open window; a no-op without one. *)

val collect : (unit -> 'a) -> 'a * snapshot
(** [collect f] opens a window on the calling domain, runs [f], and
    returns its result with everything charged during the run. Windows
    do not nest (the outer window keeps collecting; an inner [collect]
    returns an empty snapshot) and do not cross domains: work [f]
    hands to other domains is not attributed. If [f] raises, the
    window closes and the exception continues. *)

val collecting : unit -> bool
(** Whether the calling domain has an open window. *)
