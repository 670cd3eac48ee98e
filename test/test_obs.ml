(* The observability stack: strict clock monotonicity, the leveled
   logger, the striped metrics registry, the per-domain trace
   collector and its Chrome export, and the headline property that
   every metric the batch driver embeds in its JSON output is a pure
   function of the corpus — invariant under the worker count. *)

open Dda_obs
open Dda_engine

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_strict () =
  Clock.use_tick_counter ();
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t <= !prev then Alcotest.failf "clock repeated: %d after %d" t !prev;
    prev := t
  done;
  (* A stuck source is nudged forward, never allowed to repeat. *)
  Clock.set_source (fun () -> 42);
  let a = Clock.now () in
  let b = Clock.now () in
  Clock.use_tick_counter ();
  Alcotest.(check bool) "stuck source still strict" true (b > a)

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  List.iter
    (fun (name, l) ->
       Alcotest.(check string) "name round-trip" name (Log.level_name l);
       Alcotest.(check bool) "parse round-trip" true
         (Log.level_of_string name = Some l))
    Log.all_levels;
  Alcotest.(check bool) "unknown level rejected" true
    (Log.level_of_string "loud" = None);
  let saved = Log.level () in
  Log.set_level Log.Debug;
  Alcotest.(check bool) "set/get" true (Log.level () = Log.Debug);
  Log.set_level saved

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  (* find-or-register is idempotent: the same name is the same counter *)
  Metrics.incr (Metrics.counter "test.obs.counter");
  Alcotest.(check int) "counter value" 43
    (Metrics.find_counter (Metrics.snapshot ()) "test.obs.counter");
  Alcotest.(check int) "absent counter reads 0" 0
    (Metrics.find_counter (Metrics.snapshot ()) "no.such.counter")

let test_histogram_buckets () =
  Alcotest.(check int) "non-positive samples go to bucket 0" 0
    (Metrics.bucket_of 0);
  Alcotest.(check int) "bucket 0 lower bound" 0 (Metrics.bucket_lo 0);
  for s = 1 to 4096 do
    let b = Metrics.bucket_of s in
    let lo = Metrics.bucket_lo b in
    if not (lo <= s && s <= (2 * lo) - 1) then
      Alcotest.failf "sample %d filed in bucket %d = [%d, %d]" s b lo
        ((2 * lo) - 1)
  done;
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.hist" in
  List.iter (Metrics.observe h) [ -3; 0; 1; 5; 1000 ];
  let snap = Metrics.snapshot () in
  match List.assoc_opt "test.obs.hist" snap.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
    Alcotest.(check int) "count" 5 hs.Metrics.count;
    Alcotest.(check int) "sum" 1003 hs.Metrics.sum;
    Alcotest.(check int) "samples across buckets" 5
      (List.fold_left (fun acc (_, n) -> acc + n) 0 hs.Metrics.buckets)

let test_merge_and_reset () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.merge" in
  Metrics.add c 5;
  let s1 = Metrics.snapshot () in
  Metrics.reset ();
  Metrics.add c 7;
  let s2 = Metrics.snapshot () in
  Alcotest.(check int) "reset zeroes but keeps the name" 7
    (Metrics.find_counter s2 "test.obs.merge");
  Alcotest.(check int) "merge sums pointwise" 12
    (Metrics.find_counter (Metrics.merge s1 s2) "test.obs.merge")

let test_striped_parallel () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.parallel" in
  let worker () =
    Domain.spawn (fun () ->
        for _ = 1 to 10_000 do
          Metrics.incr c
        done)
  in
  let ds = List.init 4 (fun _ -> worker ()) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no update lost across stripes" 40_000
    (Metrics.find_counter (Metrics.snapshot ()) "test.obs.parallel")

(* ------------------------------------------------------------------ *)
(* Trace collector                                                     *)
(* ------------------------------------------------------------------ *)

let with_trace f =
  Clock.use_tick_counter ();
  Trace.clear ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
        Trace.disable ();
        Trace.clear ())
    f

let test_ring_growth () =
  with_trace (fun () ->
      (* Push through several ring growths (the buffer starts small):
         nothing lost, no uninitialized slot leaks into the export. *)
      for i = 1 to 5_000 do
        Trace.instant "tick" ~args:[ ("i", i) ]
      done;
      let evs = Trace.events () in
      Alcotest.(check int) "all events kept" 5_000 (List.length evs);
      Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
      List.iter
        (fun (e : Trace.event) ->
           if e.Trace.name <> "tick" then
             Alcotest.failf "alien event %S in the ring" e.Trace.name)
        evs;
      ignore
        (List.fold_left
           (fun prev (e : Trace.event) ->
              if e.Trace.ts <= prev then
                Alcotest.failf "timestamps not strict: %d after %d" e.Trace.ts
                  prev;
              e.Trace.ts)
           min_int evs))

let test_ring_overflow_counts_losses () =
  with_trace (fun () ->
      for _ = 1 to 70_000 do
        Trace.instant "spam"
      done;
      let kept = List.length (Trace.events ()) in
      Alcotest.(check bool) "overflow drops something" true
        (Trace.dropped () > 0);
      Alcotest.(check int) "kept + dropped = pushed" 70_000
        (kept + Trace.dropped ()))

let test_wrap_closes_on_raise () =
  with_trace (fun () ->
      (try
         Trace.wrap ~name:"boom"
           ~args:(fun _ -> [ ("unreachable", 1) ])
           (fun () -> failwith "expected")
       with Failure _ -> ());
      match Trace.events () with
      | [ e ] ->
        Alcotest.(check string) "span name" "boom" e.Trace.name;
        Alcotest.(check bool) "raised flag" true
          (List.mem ("raised", 1) e.Trace.args);
        Alcotest.(check bool) "span, not instant" true (e.Trace.dur >= 0)
      | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs))

(* The Chrome export, parsed back with the bench harness's JSON
   parser: structurally well-formed, correctly escaped, and strictly
   timestamp-ordered within each track. *)
let test_chrome_export_well_formed () =
  let json =
    with_trace (fun () ->
        Trace.instant "needs \"escaping\"\n" ~args:[ ("k", 1) ];
        Trace.wrap ~name:"outer"
          ~args:(fun _ -> [ ("v", 2) ])
          (fun () ->
             Trace.wrap ~name:"inner" ~args:(fun _ -> []) (fun () -> ()));
        let d = Domain.spawn (fun () -> Trace.instant "worker") in
        Domain.join d;
        Trace.to_chrome_string ())
  in
  let module Json_out = Dda_core.Json_out in
  let get k j =
    match Json_out.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing field %s" k
  in
  let str k j =
    match get k j with
    | Json_out.Str s -> s
    | v -> Alcotest.failf "%s: not a string: %s" k (Json_out.to_string v)
  in
  (* The export writes integer tick counts and thread ids. *)
  let int k j =
    match get k j with
    | Json_out.Int n -> n
    | v -> Alcotest.failf "%s: not an integer: %s" k (Json_out.to_string v)
  in
  let events =
    match Json_out.of_string json with
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
    | Ok doc -> (
        match get "traceEvents" doc with
        | Json_out.List events -> events
        | _ -> Alcotest.fail "traceEvents is not an array")
  in
  (* one metadata record per track plus our four events *)
  Alcotest.(check bool) "has events" true (List.length events >= 5);
  let last_ts = Hashtbl.create 4 in
  List.iter
    (fun e ->
       let ph = str "ph" e in
       ignore (str "name" e);
       match ph with
       | "M" -> ()
       | "X" | "i" ->
         let tid = int "tid" e in
         let ts = int "ts" e in
         (match Hashtbl.find_opt last_ts tid with
          | Some prev when ts <= prev ->
            Alcotest.failf "track %d not strictly ordered: %d after %d" tid
              ts prev
          | _ -> ());
         Hashtbl.replace last_ts tid ts;
         if ph = "X" then
           Alcotest.(check bool) "complete events carry a duration" true
             (int "dur" e >= 0)
       | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  Alcotest.(check bool) "worker got its own track" true
    (Hashtbl.length last_ts >= 2)

(* ------------------------------------------------------------------ *)
(* Batch metrics are jobs-invariant                                    *)
(* ------------------------------------------------------------------ *)

let corpus_of_programs programs =
  List.mapi
    (fun i program -> { Batch.name = Printf.sprintf "p%d" i; program })
    programs

let arb_corpus =
  QCheck.make
    ~print:(fun progs ->
        String.concat "\n---\n" (List.map Dda_lang.Pretty.program_to_string progs))
    QCheck.Gen.(
      list_size (int_range 2 5) (QCheck.gen Test_support.Gen_ast.arb_affine_nest))

let prop_batch_metrics_jobs_invariant =
  (* Every counter and histogram the batch embeds in its JSON output
     must be a pure function of the per-item analysis work — running
     the same corpus on one worker or several yields the identical
     merged registry (the design rule that keeps batch output
     byte-identical across --jobs). *)
  QCheck.Test.make ~name:"batch metrics invariant under the job count"
    ~count:10 arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let registry_of jobs =
         Metrics.reset ();
         ignore (Batch.run ~jobs corpus);
         Metrics.to_json_string (Metrics.snapshot ())
       in
       let solo = registry_of 1 in
       List.for_all (fun jobs -> registry_of jobs = solo) [ 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_expo_sanitize () =
  Alcotest.(check string) "dots become underscores" "dda_serve_op_analyze_ns"
    (Expo.sanitize "serve.op.analyze.ns");
  Alcotest.(check string) "dashes too" "dda_a_b" (Expo.sanitize "a-b");
  Alcotest.(check string) "identity otherwise" "dda_memo_hits"
    (Expo.sanitize "memo_hits");
  (* Two registry names that collide after sanitization must refuse to
     render rather than silently merge into one series. *)
  Alcotest.check_raises "collision refused"
    (Invalid_argument
       "Expo: \"a.b\" and \"a-b\" both expose as \"dda_a_b\" — two series \
        would merge")
    (fun () ->
       ignore
         (Expo.to_string
            { Metrics.counters = [ ("a.b", 1); ("a-b", 2) ]; histograms = [] }))

let sample_snapshot =
  {
    Metrics.counters = [ ("qc.alpha", 3); ("qc.beta", 0) ];
    histograms =
      [
        ( "qc.lat",
          { Metrics.count = 6; sum = 100; buckets = [ (0, 1); (3, 2); (5, 3) ] }
        );
      ];
  }

let test_expo_well_formed () =
  let text = Expo.to_string ~extra_gauges:[ ("up", 1) ] sample_snapshot in
  let lines = String.split_on_char '\n' text in
  (* Every exposed family has HELP and TYPE lines. *)
  List.iter
    (fun name ->
       List.iter
         (fun directive ->
            Alcotest.(check bool)
              (directive ^ " for " ^ name) true
              (List.exists
                 (fun l ->
                    String.length l > 2
                    && String.starts_with ~prefix:("# " ^ directive ^ " " ^ name) l)
                 lines))
         [ "HELP"; "TYPE" ])
    [ "dda_qc_alpha"; "dda_qc_beta"; "dda_qc_lat"; "dda_up" ];
  (* The log2 histogram renders as monotone cumulative buckets with an
     +Inf bucket equal to the count. Bucket 3 covers [4,7] so its upper
     bound is 7; bucket 5 covers [16,31]. *)
  let expect =
    [
      "dda_qc_lat_bucket{le=\"0\"} 1";
      "dda_qc_lat_bucket{le=\"7\"} 3";
      "dda_qc_lat_bucket{le=\"31\"} 6";
      "dda_qc_lat_bucket{le=\"+Inf\"} 6";
      "dda_qc_lat_sum 100";
      "dda_qc_lat_count 6";
    ]
  in
  List.iter
    (fun l -> Alcotest.(check bool) ("line " ^ l) true (List.mem l lines))
    expect

let test_expo_parse_roundtrip_unit () =
  match Expo.parse (Expo.to_string ~extra_gauges:[ ("up", 42) ] sample_snapshot) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    Alcotest.(check (list (pair string int)))
      "counters"
      [ ("dda_qc_alpha", 3); ("dda_qc_beta", 0) ]
      p.Expo.p_counters;
    Alcotest.(check (list (pair string int))) "gauges" [ ("dda_up", 42) ]
      p.Expo.p_gauges;
    (match p.Expo.p_histograms with
     | [ ("dda_qc_lat", h) ] ->
       Alcotest.(check int) "count" 6 h.Expo.p_count;
       Alcotest.(check int) "sum" 100 h.Expo.p_sum;
       Alcotest.(check (list (pair string int)))
         "cumulative"
         [ ("0", 1); ("7", 3); ("31", 6); ("+Inf", 6) ]
         h.Expo.p_cumulative
     | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs))

let test_expo_parse_strict () =
  List.iter
    (fun text ->
       match Expo.parse text with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "parse accepted malformed input: %s" text)
    [
      "dda_x 1";  (* sample without a TYPE declaration *)
      "# TYPE dda_x counter\ndda_x one";  (* non-integer value *)
      "# TYPE dda_x counter\ndda_x 1 2 3";  (* too many fields *)
      "# FLAVOR dda_x counter";  (* unknown directive *)
      "# TYPE dda_x histogram\ndda_x_bucket{le=7} 1";  (* unquoted label *)
    ]

(* snapshot -> exposition -> parse loses nothing. The generator builds
   internally-consistent histograms (count = sum of bucket samples),
   which is what [Metrics.observe] always produces. *)
let arb_metrics_snapshot =
  let open QCheck in
  let gen =
    Gen.(
      let hist =
        let* idxs =
          map
            (fun l -> List.sort_uniq compare l)
            (list_size (int_range 1 6) (int_range 0 20))
        in
        let* samples =
          flatten_l (List.map (fun i -> pair (return i) (int_range 1 50)) idxs)
        in
        let* sum = int_range 0 1_000_000 in
        return
          {
            Metrics.count = List.fold_left (fun a (_, n) -> a + n) 0 samples;
            sum;
            buckets = samples;
          }
      in
      let* ncounters = int_range 0 4 in
      let* nhists = int_range 0 3 in
      let* counter_vals =
        flatten_l (List.init ncounters (fun _ -> int_range 0 1_000_000))
      in
      let* hists = flatten_l (List.init nhists (fun _ -> hist)) in
      return
        {
          Metrics.counters =
            List.mapi (fun i v -> (Printf.sprintf "qc.c%d" i, v)) counter_vals;
          histograms =
            List.mapi (fun i h -> (Printf.sprintf "qc.h%d" i, h)) hists;
        })
  in
  QCheck.make
    ~print:(fun s ->
        Expo.to_string s)
    gen

let prop_expo_roundtrip =
  QCheck.Test.make ~name:"expo round-trip: snapshot -> text -> parse"
    ~count:200 arb_metrics_snapshot (fun snap ->
      match Expo.parse (Expo.to_string snap) with
      | Error msg -> QCheck.Test.fail_report ("parse failed: " ^ msg)
      | Ok p ->
        List.iter
          (fun (name, v) ->
             if List.assoc_opt (Expo.sanitize name) p.Expo.p_counters <> Some v
             then QCheck.Test.fail_report ("counter lost: " ^ name))
          snap.Metrics.counters;
        List.iter
          (fun (name, (h : Metrics.hist_snapshot)) ->
             match List.assoc_opt (Expo.sanitize name) p.Expo.p_histograms with
             | None -> QCheck.Test.fail_report ("histogram lost: " ^ name)
             | Some ph ->
               if ph.Expo.p_count <> h.Metrics.count then
                 QCheck.Test.fail_report "count changed";
               if ph.Expo.p_sum <> h.Metrics.sum then
                 QCheck.Test.fail_report "sum changed";
               (* Cumulative counts are monotone and end at count. *)
               let rec mono prev = function
                 | [] -> ()
                 | (_, c) :: rest ->
                   if c < prev then QCheck.Test.fail_report "not monotone";
                   mono c rest
               in
               mono 0 ph.Expo.p_cumulative;
               (match List.rev ph.Expo.p_cumulative with
                | ("+Inf", c) :: _ when c = h.Metrics.count -> ()
                | _ -> QCheck.Test.fail_report "+Inf bucket wrong");
               if
                 List.length ph.Expo.p_cumulative
                 <> List.length h.Metrics.buckets + 1
               then QCheck.Test.fail_report "bucket count changed")
          snap.Metrics.histograms;
        true)

(* ------------------------------------------------------------------ *)
(* Stage attribution                                                   *)
(* ------------------------------------------------------------------ *)

(* A deterministic "clock" that jumps by a known amount per read makes
   the charged durations exact: each timed call reads twice, so it
   charges exactly [step]. *)
let with_attrib_clock step f =
  let t = ref 0 in
  Attrib.set_time_source (fun () -> t := !t + step; !t);
  Fun.protect ~finally:(fun () -> Attrib.set_time_source Clock.now) f

let stage_stat snap stage =
  List.assoc stage snap.Attrib.stages

let test_attrib_inactive () =
  Alcotest.(check bool) "no window" false (Attrib.collecting ());
  Alcotest.(check int) "time is transparent" 7
    (Attrib.time Attrib.Svpc (fun () -> 7));
  Attrib.add_steps 100 (* no-op, must not raise *)

let test_attrib_collect () =
  with_attrib_clock 3 (fun () ->
      let v, snap =
        Attrib.collect (fun () ->
            Alcotest.(check bool) "window open" true (Attrib.collecting ());
            let a = Attrib.time Attrib.Gcd (fun () -> 1) in
            let b = Attrib.time Attrib.Gcd (fun () -> 2) in
            let c = Attrib.time Attrib.Fourier (fun () -> 3) in
            Attrib.add_steps 5;
            Attrib.add_steps 7;
            a + b + c)
      in
      Alcotest.(check int) "result" 6 v;
      let gcd = stage_stat snap Attrib.Gcd in
      Alcotest.(check int) "gcd calls" 2 gcd.Attrib.calls;
      Alcotest.(check int) "gcd ns" 6 gcd.Attrib.ns;
      let fm = stage_stat snap Attrib.Fourier in
      Alcotest.(check int) "fourier calls" 1 fm.Attrib.calls;
      Alcotest.(check int) "fourier ns" 3 fm.Attrib.ns;
      let sv = stage_stat snap Attrib.Svpc in
      Alcotest.(check int) "untouched stage" 0 sv.Attrib.calls;
      Alcotest.(check int) "steps" 12 snap.Attrib.budget_steps;
      Alcotest.(check bool) "window closed" false (Attrib.collecting ()))

let test_attrib_charges_on_raise () =
  with_attrib_clock 1 (fun () ->
      let _, snap =
        Attrib.collect (fun () ->
            (try Attrib.time Attrib.Acyclic (fun () -> failwith "boom")
             with Failure _ -> ());
            ())
      in
      let ac = stage_stat snap Attrib.Acyclic in
      Alcotest.(check int) "call charged" 1 ac.Attrib.calls;
      Alcotest.(check int) "time charged" 1 ac.Attrib.ns)

let test_attrib_nested_and_raise () =
  with_attrib_clock 1 (fun () ->
      let (), outer =
        Attrib.collect (fun () ->
            ignore (Attrib.time Attrib.Svpc (fun () -> ()));
            let (), inner = Attrib.collect (fun () ->
                ignore (Attrib.time Attrib.Svpc (fun () -> ())))
            in
            (* The inner window reports nothing; the outer keeps
               collecting through it. *)
            Alcotest.(check int) "inner empty" 0
              (stage_stat inner Attrib.Svpc).Attrib.calls)
      in
      Alcotest.(check int) "outer saw both" 2
        (stage_stat outer Attrib.Svpc).Attrib.calls);
  (* A raise inside collect closes the window. *)
  (try ignore (Attrib.collect (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "closed after raise" false (Attrib.collecting ())

let test_attrib_solver_integration () =
  (* The real cascade charges the window: analyze one flow-dependent
     loop and expect gcd (and svpc) activity plus budget steps. *)
  let program =
    "for i = 1 to 10 do\n  a[i] = a[i-1] + 1\nend\n"
  in
  let prog = Dda_lang.Parser.parse_program program in
  let _report, snap =
    Attrib.collect (fun () -> Dda_core.Analyzer.analyze prog)
  in
  let gcd = stage_stat snap Attrib.Gcd in
  Alcotest.(check bool) "gcd ran" true (gcd.Attrib.calls > 0);
  Alcotest.(check bool) "steps charged" true (snap.Attrib.budget_steps > 0)

(* ------------------------------------------------------------------ *)
(* Probes: the sinks cannot disagree                                   *)
(* ------------------------------------------------------------------ *)

(* Each solver layer reports through one probe, so its three sinks —
   trace spans, registry counters, the attribution window — must count
   the same calls: run the analysis with all three live and compare
   them span by span. *)
let span_name = function
  | Attrib.Gcd -> "gcd"
  | Attrib.Svpc -> "svpc"
  | Attrib.Acyclic -> "acyclic"
  | Attrib.Loop_residue -> "loop-residue"
  | Attrib.Fourier -> "fourier-motzkin"

(* Trace, metrics and a window, all fresh, around [f]. *)
let with_all_sinks f =
  with_trace (fun () ->
      Metrics.reset ();
      let (), snap = Attrib.collect f in
      Alcotest.(check int) "no span lost to the ring" 0 (Trace.dropped ());
      (Trace.events (), Metrics.snapshot (), snap))

let check_channels what (events, metrics, (snap : Attrib.snapshot)) =
  let spans ?verdict name =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
            e.Trace.name = name
            && match verdict with
            | None -> true
            | Some v -> List.assoc_opt "verdict" e.Trace.args = Some v)
         events)
  in
  let counter = Metrics.find_counter metrics in
  let same label a b = Alcotest.(check int) (what ^ ": " ^ label) a b in
  List.iter
    (fun stage ->
       let name = Attrib.stage_name stage in
       let calls = spans (span_name stage) in
       same (name ^ " spans = calls counter") calls
         (counter ("test." ^ name ^ ".calls"));
       same (name ^ " spans = window calls") calls
         (List.assoc stage snap.Attrib.stages).Attrib.calls;
       same (name ^ " independent spans = independent counter")
         (spans ~verdict:0 (span_name stage))
         (counter ("test." ^ name ^ ".independent")))
    Attrib.all_stages;
  same "cascade spans = cascade.runs" (spans "cascade") (counter "cascade.runs");
  same "pair spans = analyzer.pairs" (spans "pair") (counter "analyzer.pairs")

let analyze_perfect config (spec : Dda_perfect.Programs.spec) =
  let prog = Dda_lang.Parser.parse_program (Dda_perfect.Programs.source spec) in
  ignore (Dda_core.Analyzer.analyze ~config prog)

let test_probe_channels_agree () =
  let module A = Dda_core.Analyzer in
  let starved =
    { A.default_config with
      A.limits = { Dda_core.Budget.default_limits with max_steps = Some 5 } }
  in
  List.iter
    (fun (label, config) ->
       List.iter
         (fun (spec : Dda_perfect.Programs.spec) ->
            let sinks = with_all_sinks (fun () -> analyze_perfect config spec) in
            let events, _, _ = sinks in
            Alcotest.(check bool) "the stages ran" true
              (List.exists (fun (e : Trace.event) -> e.Trace.name = "svpc") events);
            check_channels (label ^ " " ^ spec.name) sinks)
         Dda_perfect.Programs.all)
    [ ("full budget", A.default_config); ("5-step budget", starved) ]

(* A stage that raises is still one call in every sink. *)
let test_probe_raise_charged () =
  let module Failpoint = Dda_core.Failpoint in
  Failpoint.set "svpc.run=raise@1";
  let sinks =
    Fun.protect ~finally:Failpoint.clear (fun () ->
        with_all_sinks (fun () ->
            match
              analyze_perfect Dda_core.Analyzer.default_config
                (List.hd Dda_perfect.Programs.all)
            with
            | () -> Alcotest.fail "the failpoint did not fire"
            | exception Failpoint.Injected _ -> ()))
  in
  let events, _, snap = sinks in
  Alcotest.(check bool) "the svpc span closed as raised" true
    (List.exists
       (fun (e : Trace.event) ->
          e.Trace.name = "svpc" && List.mem ("raised", 1) e.Trace.args)
       events);
  Alcotest.(check int) "the window was charged" 1
    (List.assoc Attrib.Svpc snap.Attrib.stages).Attrib.calls;
  check_channels "svpc raise" sinks

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "strict monotonicity" `Quick test_clock_strict ] );
      ("log", [ Alcotest.test_case "levels" `Quick test_log_levels ]);
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "merge and reset" `Quick test_merge_and_reset;
          Alcotest.test_case "striped updates across domains" `Quick
            test_striped_parallel;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring growth keeps every event" `Quick
            test_ring_growth;
          Alcotest.test_case "overflow counts losses" `Quick
            test_ring_overflow_counts_losses;
          Alcotest.test_case "wrap closes on raise" `Quick
            test_wrap_closes_on_raise;
          Alcotest.test_case "chrome export well-formed and ordered" `Quick
            test_chrome_export_well_formed;
        ] );
      ( "expo",
        [
          Alcotest.test_case "name sanitization" `Quick test_expo_sanitize;
          Alcotest.test_case "exposition well-formed" `Quick
            test_expo_well_formed;
          Alcotest.test_case "parse round-trip (unit)" `Quick
            test_expo_parse_roundtrip_unit;
          Alcotest.test_case "parser is strict" `Quick test_expo_parse_strict;
          qt prop_expo_roundtrip;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "inactive path is transparent" `Quick
            test_attrib_inactive;
          Alcotest.test_case "collect charges calls, time, steps" `Quick
            test_attrib_collect;
          Alcotest.test_case "charges on raise" `Quick
            test_attrib_charges_on_raise;
          Alcotest.test_case "nested windows and raise" `Quick
            test_attrib_nested_and_raise;
          Alcotest.test_case "solver integration" `Quick
            test_attrib_solver_integration;
        ] );
      ( "probe",
        [
          Alcotest.test_case "sinks agree over PERFECT" `Quick
            test_probe_channels_agree;
          Alcotest.test_case "a raise is charged in every sink" `Quick
            test_probe_raise_charged;
        ] );
      ( "batch",
        [ qt prop_batch_metrics_jobs_invariant ] );
    ]
