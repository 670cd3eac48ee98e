(* The benchmark harness: the timed half of the paper's evaluation on
   the synthetic PERFECT Club — Table 6's absolute cost of dependence
   testing, Bechamel micro-benchmarks of per-test cost, certification
   overhead, ablations — and the engine and telemetry measurements the
   CI gates read. The deterministic tables (Tables 1-5 and 7, the
   section 6 and 7 counts) are `ddtest report`'s. End-to-end throughput,
   latency and allocation are perfbench's (perfbench/NOTES.md).

   Absolute numbers differ from the paper (different machine, synthetic
   workload); the shapes are the claims under test: memoization and
   pruning cut wall time as well as test counts, and the per-test
   costs are ordered SVPC < Acyclic < Loop Residue < Fourier-Motzkin. *)

open Dda_lang
open Dda_core
open Dda_perfect

let programs =
  List.map
    (fun (spec : Programs.spec) ->
       (spec, Parser.parse_program (Programs.source spec)))
    Programs.all

let line () = print_endline (String.make 78 '-')

let section title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* The plain cascade: no memoization, no direction vectors, no symbolic
   terms (the configuration of the paper's Table 1). *)
let cfg_plain =
  {
    Analyzer.default_config with
    Analyzer.directions = false;
    memo = Analyzer.Memo_off;
    symbolic = false;
  }

let cfg_memo memo = { cfg_plain with Analyzer.memo }

let cfg_directions ~prune ~symbolic ~memo =
  { Analyzer.default_config with Analyzer.prune; symbolic; memo }

let analyze_all config =
  List.map
    (fun (spec, prog) -> (spec, Analyzer.analyze ~config prog))
    programs

(* ------------------------------------------------------------------ *)
(* Table 6: cost of dependence testing vs whole compilation            *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let table6 () =
  section
    "Table 6 analog: absolute cost of exact dependence testing\n\
     (the paper compared against f77 -O3 on 500-18,500-line Fortran and saw\n\
     ~3% overhead; our front end is a thin mini-language compiler, so the\n\
     meaningful measures here are absolute and per-pair cost)";
  Printf.printf "%-5s %8s %14s %14s %14s\n" "Prog" "pairs" "dep test (ms)"
    "us per pair" "front end (ms)";
  let tot_a = ref 0.0 and tot_c = ref 0.0 and tot_p = ref 0 in
  List.iter
    (fun ((spec : Programs.spec), _) ->
       let src = Programs.source spec in
       (* The front end: parsing, semantic checks and the optimizer. *)
       let prepared, t_compile =
         time (fun () ->
             let prog = Parser.parse_program src in
             ignore (Semant.check prog);
             Dda_passes.Pipeline.run prog)
       in
       (* Extraction is timed with the dependence tests, as it was
          when [Analyzer.analyze] ran it. *)
       let report, t_analyze =
         time (fun () ->
             let config = Analyzer.default_config in
             let sites =
               Affine.extract ~symbolic:config.Analyzer.symbolic prepared
             in
             Analyzer.analyze_sites ~config (Analyzer.site_pairs config sites))
       in
       let pairs = report.Analyzer.stats.pairs in
       tot_a := !tot_a +. t_analyze;
       tot_c := !tot_c +. t_compile;
       tot_p := !tot_p + pairs;
       Printf.printf "%-5s %8d %14.2f %14.2f %14.2f\n" spec.name pairs
         (t_analyze *. 1e3)
         (t_analyze *. 1e6 /. float_of_int (max 1 pairs))
         (t_compile *. 1e3))
    programs;
  Printf.printf "%-5s %8d %14.2f %14.2f %14.2f\n" "TOTAL" !tot_p (!tot_a *. 1e3)
    (!tot_a *. 1e6 /. float_of_int (max 1 !tot_p))
    (!tot_c *. 1e3)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Candidate pairs share a loop ([within_nest_only]) and are never
   self pairs (no [directions]). *)
let candidate_config =
  { Analyzer.default_config with Analyzer.symbolic = false; directions = false }

(* Representative reduced systems, one per cascade stage, taken from the
   pattern generators so they match what the suite actually tests. *)
let representative_system ?(seed = 7) category =
  let rng = Prng.create seed in
  let rec hunt tries =
    if tries > 200 then failwith "no representative system found"
    else begin
      let src = Patterns.generate rng category in
      (* The last candidate in textual order is tried first. *)
      let candidates =
        List.rev
          (Analyzer.front_end candidate_config (Parser.parse_program src))
            .Analyzer.pairs
      in
      let found =
        List.find_map
          (fun (s1, s2) ->
             match Build_problem.build s1 s2 with
             | None -> None
             | Some p -> (
                 match Gcd_test.run p with
                 | Gcd_test.Independent _ -> None
                 | Gcd_test.Reduced red ->
                   let sys = red.Gcd_test.system in
                   let decided = (Cascade.run sys).Cascade.decided_by in
                   let wanted =
                     match category with
                     | Patterns.Svpc -> Cascade.T_svpc
                     | Patterns.Acyclic -> Cascade.T_acyclic
                     | Patterns.Loop_residue -> Cascade.T_loop_residue
                     | Patterns.Fourier -> Cascade.T_fourier
                     | Patterns.Constant | Patterns.Gcd_indep | Patterns.Symbolic_mix ->
                       Cascade.T_fourier
                   in
                   if decided = wanted then Some sys else None))
          candidates
      in
      match found with Some sys -> sys | None -> hunt (tries + 1)
    end
  in
  hunt 0

let microbench () =
  section
    "Per-test cost (Bechamel): the paper's ordering is\n\
     SVPC < Acyclic < Loop Residue < Fourier-Motzkin";
  let open Bechamel in
  (* Average each test over a batch of the systems its cascade stage
     actually decides, the way the paper reports msec/test. The acyclic
     and loop-residue benchmarks start from the simplified systems
     their cascade predecessors hand over. *)
  let batch cat = List.init 16 (fun i -> representative_system ~seed:(500 + (7 * i)) cat) in
  let svpc_batch = batch Patterns.Svpc in
  let fm_batch = batch Patterns.Fourier in
  let acyclic_batch =
    List.filter_map
      (fun sys ->
         match Svpc.run sys with
         | Svpc.Partial (box, multi) -> Some (box, multi)
         | Svpc.Infeasible _ | Svpc.Feasible _ -> None)
      (batch Patterns.Acyclic)
  in
  let lr_batch =
    List.filter_map
      (fun sys ->
         match Svpc.run sys with
         | Svpc.Partial (box, multi) -> (
             match Acyclic.run box multi with
             | Acyclic.Cycle (box', _, core) -> Some (box', core)
             | Acyclic.Infeasible _ | Acyclic.Feasible _ -> None)
         | Svpc.Infeasible _ | Svpc.Feasible _ -> None)
      (batch Patterns.Loop_residue)
  in
  let per_item = Hashtbl.create 8 in
  Hashtbl.replace per_item "dda/test-svpc" (List.length svpc_batch);
  Hashtbl.replace per_item "dda/test-acyclic" (List.length acyclic_batch);
  Hashtbl.replace per_item "dda/test-loop-residue" (List.length lr_batch);
  Hashtbl.replace per_item "dda/test-fourier" (List.length fm_batch);
  Hashtbl.replace per_item "dda/fourier-instead-of-svpc" (List.length svpc_batch);
  let ti = Parser.parse_program (Programs.source (Option.get (Programs.find "TI"))) in
  let tests =
    Test.make_grouped ~name:"dda"
      [
        Test.make ~name:"test-svpc"
          (Staged.stage (fun () -> List.iter (fun s -> ignore (Svpc.run s)) svpc_batch));
        Test.make ~name:"test-acyclic"
          (Staged.stage (fun () ->
               List.iter (fun (b, m) -> ignore (Acyclic.run b m)) acyclic_batch));
        Test.make ~name:"test-loop-residue"
          (Staged.stage (fun () ->
               List.iter (fun (b, c) -> ignore (Loop_residue.run b c)) lr_batch));
        Test.make ~name:"test-fourier"
          (Staged.stage (fun () -> List.iter (fun s -> ignore (Fourier.run s)) fm_batch));
        Test.make ~name:"fourier-instead-of-svpc"
          (Staged.stage (fun () ->
               List.iter (fun s -> ignore (Fourier.run s)) svpc_batch));
        Test.make ~name:"whole-program-TI"
          (Staged.stage (fun () -> Analyzer.analyze ~config:cfg_plain ti));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  ( "microbench",
    Json_out.List
      (List.filter_map
         (fun (name, v) ->
            match Analyze.OLS.estimates v with
            | Some [ ns ] ->
              let n = match Hashtbl.find_opt per_item name with Some n when n > 0 -> n | _ -> 1 in
              let per_test = ns /. float_of_int n in
              Printf.printf "%-34s %12.1f ns/test  (batch of %d)\n" name per_test n;
              Some
                (Json_out.Obj
                   [ ("name", Json_out.Str name); ("ns_per_test", Json_out.Float per_test) ])
            | _ ->
              Printf.printf "%-34s (no estimate)\n" name;
              None)
         (List.sort compare rows)) )

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations";
  (* Whole-suite wall clock for the plain cascade. *)
  let plain, t_cascade = time (fun () -> analyze_all cfg_plain) in
  let count_work l =
    List.fold_left
      (fun acc (_, (r : Analyzer.report)) ->
         let s = r.Analyzer.stats in
         acc + s.plain_by_test.(0) + s.plain_by_test.(1) + s.plain_by_test.(2)
         + s.plain_by_test.(3))
      0 l
  in
  Printf.printf "cascade, %d plain tests over the suite:      %.1f ms\n"
    (count_work plain) (t_cascade *. 1e3);
  (* Memoization wall-clock effect. *)
  let _, t_off = time (fun () -> analyze_all (cfg_memo Analyzer.Memo_off)) in
  let _, t_simple = time (fun () -> analyze_all (cfg_memo Analyzer.Memo_simple)) in
  let _, t_impr = time (fun () -> analyze_all (cfg_memo Analyzer.Memo_improved)) in
  Printf.printf "memo off / simple / improved:                %.1f / %.1f / %.1f ms\n"
    (t_off *. 1e3) (t_simple *. 1e3) (t_impr *. 1e3);
  (* Direction-vector pruning effect (test counts, cf. tables 4/5). *)
  let count_dirs cfg =
    List.fold_left
      (fun acc (_, (r : Analyzer.report)) ->
         let c = r.Analyzer.stats.dir_counts.Direction.by_test in
         acc + c.(0) + c.(1) + c.(2) + c.(3))
      0 (analyze_all cfg)
  in
  (* Simple memoization here: the improved scheme's canonicalization
     already deletes unused levels before refinement ever runs, which
     would mask what the pruning rules themselves contribute. *)
  let unpruned =
    count_dirs
      (cfg_directions ~prune:Direction.no_pruning ~symbolic:false
         ~memo:Analyzer.Memo_simple)
  in
  let pruned =
    count_dirs
      (cfg_directions ~prune:Direction.full_pruning ~symbolic:false
         ~memo:Analyzer.Memo_simple)
  in
  Printf.printf "direction tests (simple memo), none / paper: %d / %d\n"
    unpruned pruned;
  (* The symmetric memoization scheme (the paper's "further
     optimization"). *)
  let sym_unique =
    let results = analyze_all (cfg_memo Analyzer.Memo_symmetric) in
    List.fold_left
      (fun acc (_, (r : Analyzer.report)) -> acc + r.Analyzer.stats.memo_unique_full)
      0 results
  in
  let impr_unique =
    let results = analyze_all (cfg_memo Analyzer.Memo_improved) in
    List.fold_left
      (fun acc (_, (r : Analyzer.report)) -> acc + r.Analyzer.stats.memo_unique_full)
      0 results
  in
  Printf.printf "unique cases, improved vs symmetric memo:    %d vs %d\n"
    impr_unique sym_unique;
  (* Fourier-Motzkin integer tightening (Omega-style) ablation: same
     verdicts, smaller intermediate systems. *)
  let fm_systems =
    List.init 24 (fun i -> representative_system ~seed:(1000 + i) Patterns.Fourier)
  in
  let fm_profile tighten =
    let stats = Fourier.fresh_stats () in
    let verdicts =
      List.map (fun sys -> Fourier.run ~tighten ~stats sys) fm_systems
    in
    (stats, verdicts)
  in
  let s_plain, v_plain = fm_profile false in
  let s_tight, v_tight = fm_profile true in
  Printf.printf
    "fourier tightening ablation over %d systems:\n\
    \  eliminations %d -> %d, peak rows %d -> %d, b&b branches %d -> %d\n\
    \  verdicts identical: %b\n"
    (List.length fm_systems) s_plain.Fourier.eliminations
    s_tight.Fourier.eliminations s_plain.Fourier.max_rows s_tight.Fourier.max_rows
    s_plain.Fourier.branches s_tight.Fourier.branches
    (List.for_all2
       (fun a b ->
          match (a, b) with
          | Fourier.Infeasible _, Fourier.Infeasible _ -> true
          | Fourier.Feasible _, Fourier.Feasible _ -> true
          | Fourier.Unknown, Fourier.Unknown -> true
          | _ -> false)
       v_plain v_tight)

(* ------------------------------------------------------------------ *)
(* --jobs scaling: independent and live-shared batch analysis          *)
(* ------------------------------------------------------------------ *)

let batch_corpus_8x () =
  List.concat_map
    (fun ((spec : Programs.spec), prog) ->
       List.init 8 (fun k ->
           (Printf.sprintf "%s#%d" spec.name k, prog)))
    programs

(* Everything the batch emits: per-item reports and merged stats,
   rendered to one canonical string. *)
let batch_fingerprint (outcomes, (summary : Dda_engine.Stream.summary)) =
  String.concat "\n"
    (List.map
       (function
         | Dda_engine.Stream.Analyzed a ->
           a.name ^ " " ^ Dda_core.Json_out.to_string (Dda_core.Json_out.report a.report)
         | Dda_engine.Stream.Quarantined q -> q.name ^ " quarantined")
       outcomes)
  ^ Dda_core.Json_out.to_string (Dda_core.Json_out.stats summary.merged)

(* Reports minus the memo counters: live sharing changes who hits (a
   scheduling fact the stats faithfully record) but must never change
   what any pair's verdict says. This fingerprints exactly the latter. *)
let verdict_fingerprint (outcomes, _) =
  String.concat "\n"
    (List.map
       (function
         | Dda_engine.Stream.Analyzed a ->
           a.name
           ^ " "
           ^ String.concat ";"
               (List.map
                  (fun p -> Dda_core.Json_out.to_string (Dda_core.Json_out.pair p))
                  a.report.Dda_core.Analyzer.pair_reports)
         | Dda_engine.Stream.Quarantined q -> q.name ^ " quarantined")
       outcomes)

(* One job count's runs: the independent output's fingerprint, whether
   the live-shared verdicts equal the independent ones, both wall
   times and the live full-table hit rate. *)
type scaling_run = {
  jobs : int;
  output : string;
  same_verdicts : bool;
  indep_ms : float;
  live_ms : float;
  hit_rate : float;
}

(* The batch engine at [--jobs] 1, 2 and 4, in both modes. Independent
   analysis must emit byte-identical output at every job count. Live
   sharing turns any cross-item repeat into a hit the moment one
   domain has computed it, so its full-table hit rate should hold flat
   as jobs grow, and its verdicts must equal the independent ones. *)
let jobs_scaling () =
  let cores = Domain.recommended_domain_count () in
  section
    (Printf.sprintf
       "--jobs scaling: independent and live-shared batch analysis\n\
        (synthetic PERFECT Club replicated 8x; this machine reports\n\
        %d core(s) -- wall-clock scaling needs real cores)"
       cores);
  let corpus = batch_corpus_8x () in
  let full_hit_rate (_, (summary : Dda_engine.Stream.summary)) =
    let s = summary.merged in
    if s.memo_lookups_full = 0 then 0.
    else float_of_int s.memo_hits_full /. float_of_int s.memo_lookups_full
  in
  let runs =
    List.map
      (fun jobs ->
         let indep, t_indep =
           time (fun () -> Dda_engine.Stream.run_programs ~jobs corpus)
         in
         let live, t_live =
           time (fun () ->
               Dda_engine.Stream.run_programs ~share_memo:true ~jobs corpus)
         in
         {
           jobs;
           output = batch_fingerprint indep;
           same_verdicts =
             String.equal (verdict_fingerprint live) (verdict_fingerprint indep);
           indep_ms = t_indep *. 1e3;
           live_ms = t_live *. 1e3;
           hit_rate = full_hit_rate live;
         })
      [ 1; 2; 4 ]
  in
  let output_identical =
    List.for_all (fun r -> String.equal r.output (List.hd runs).output) runs
  in
  let identical = List.for_all (fun r -> r.same_verdicts) runs in
  Printf.printf "%d programs:\n" (List.length corpus);
  Printf.printf "  %4s  %21s  %14s %9s\n" "jobs" "independent wall (ms)"
    "live wall (ms)" "hit rate";
  List.iter
    (fun r ->
       Printf.printf "  %4d  %21.1f  %14.1f %8.2f%%\n" r.jobs r.indep_ms r.live_ms
         (r.hit_rate *. 100.))
    runs;
  Printf.printf "  independent output byte-identical across jobs: %b\n"
    output_identical;
  Printf.printf
    "  live-shared verdicts byte-identical to the independent run: %b\n"
    identical;
  if cores < 2 then
    print_endline
      "  NOTE: single-core machine -- the wall-clock columns do not\n\
      \  measure scaling here; hit rates and identity stay meaningful.";
  let open Json_out in
  ( "jobs_scaling",
    Obj
      [
        ("cores", Int cores);
        ("output_identical", Bool output_identical);
        ("verdicts_identical", Bool identical);
        ( "runs",
          List
            (List.map
               (fun r ->
                  Obj
                    [
                      ("jobs", Int r.jobs);
                      ("independent_wall_ms", Float r.indep_ms);
                      ("live_wall_ms", Float r.live_ms);
                      ("live_full_hit_rate", Float r.hit_rate);
                    ])
               runs) );
      ] )

(* ------------------------------------------------------------------ *)
(* Certification overhead                                              *)
(* ------------------------------------------------------------------ *)

let certification () =
  section
    "Certification overhead: analysis alone vs replay + certificate\n\
     checking (ddtest check), with and without the exhaustive oracle";
  Printf.printf "%-5s %7s %12s %12s %13s\n" "Prog" "certs" "analyze (ms)"
    "+check (ms)" "+oracle (ms)";
  let tot_a = ref 0.0 and tot_c = ref 0.0 and tot_o = ref 0.0 in
  let tot_certs = ref 0 in
  List.iter
    (fun ((spec : Programs.spec), prog) ->
       let _, t_a = time (fun () -> Analyzer.analyze prog) in
       let s, t_c = time (fun () -> Dda_check.Verify.run ~oracle:false prog) in
       let _, t_o = time (fun () -> Dda_check.Verify.run prog) in
       if s.Dda_check.Verify.errors > 0 then
         Printf.printf "%-5s CERTIFICATE FAILURES (%d)!\n" spec.name
           s.Dda_check.Verify.errors;
       tot_a := !tot_a +. t_a;
       tot_c := !tot_c +. t_c;
       tot_o := !tot_o +. t_o;
       tot_certs := !tot_certs + s.Dda_check.Verify.certificates;
       Printf.printf "%-5s %7d %12.2f %12.2f %13.2f\n" spec.name
         s.Dda_check.Verify.certificates (t_a *. 1e3) (t_c *. 1e3) (t_o *. 1e3))
    programs;
  Printf.printf "%-5s %7d %12.2f %12.2f %13.2f\n" "TOTAL" !tot_certs
    (!tot_a *. 1e3) (!tot_c *. 1e3) (!tot_o *. 1e3);
  Printf.printf
    "\nChecking every certificate costs %.1fx the analysis itself\n\
     (%.1fx with the exhaustive differential oracle on top); the check\n\
     replays the full analysis, so pure validation is the excess over 2x.\n"
    (!tot_c /. !tot_a) (!tot_o /. !tot_a)

(* ------------------------------------------------------------------ *)
(* Streaming vs in-memory batch: the bounded-memory claim              *)
(* ------------------------------------------------------------------ *)

(* The streamed engine holds only a sliding window of in-flight items;
   the in-memory figure materializes the whole parsed corpus and hands
   it to [Stream.run_programs], which keeps every outcome. VmHWM is monotonic within a
   process, so both modes are measured with the GC's own live-word
   count: full_major, then [Gc.stat].live_words. The streamed figure is
   the maximum observed after each emitted item. Both runs analyze the
   exact corpus [Stream.of_perfect ~amplify:10] yields, so the delta is
   attributable to engine structure, not corpus content. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let streaming_memory () =
  section
    "Streaming vs in-memory batch: live heap on PERFECT x10\n\
     (GC live words; the streamed run samples after every item)";
  let amplify = 10 in
  let module Stream = Dda_engine.Stream in
  let drain src f =
    let rec go () =
      match src () with
      | None -> ()
      | Some (it : Stream.item) ->
        f it;
        go ()
    in
    go ()
  in
  let base = live_words () in
  let inmem =
    let items = ref [] in
    drain
      (Stream.of_perfect ~amplify ())
      (fun it ->
        items :=
          (it.Stream.name, Parser.parse_program (it.Stream.text ())) :: !items);
    let items = List.rev !items in
    let res = Stream.run_programs ~jobs:1 items in
    let w = live_words () - base in
    ignore (Sys.opaque_identity (items, res));
    w
  in
  let base = live_words () in
  let peak = ref 0 in
  let summary =
    Stream.run ~jobs:1
      ~render:(fun _ -> "")
      ~emit:(fun _ -> peak := max !peak (live_words () - base))
      (Stream.of_perfect ~amplify ())
  in
  let ratio = float_of_int inmem /. float_of_int (max 1 !peak) in
  Printf.printf
    "%d programs: in-memory %d live words at completion,\n\
     streamed %d live words at peak (%.1fx smaller)\n"
    summary.Stream.total inmem !peak ratio;
  let open Json_out in
  ( "streaming_memory",
    Obj
      [
        ("inmem_live_words", Int inmem);
        ("stream_peak_live_words", Int !peak);
        ("ratio", Float ratio);
      ] )

(* ------------------------------------------------------------------ *)
(* Instrumentation overhead: the data-path cost must stay < 2%         *)
(* ------------------------------------------------------------------ *)

(* Both overhead gates follow one recipe: microbenchmark [n]
   instrumented calls against their bare body, scale the per-call cost
   by the call volume of one real suite pass, and divide by that pass's
   uninstrumented wall time. One suite pass swings about 30% on a
   shared host, so a gate reports the median of [overhead_passes]
   paired passes, each timing its own microbenchmark pair and its own
   suite pass. [loop acc n] times the instrumented loop, each call
   adding its index to [acc] as the bare loop does. *)
let overhead_passes = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let instrumentation_overhead ~what ~n ~calls ~loop =
  let acc = ref 0 in
  let pass () =
    let (), t_plain =
      time (fun () ->
          for i = 1 to n do
            acc := !acc + i
          done)
    in
    let t_instrumented = loop acc n in
    let _, t_off = time (fun () -> ignore (analyze_all cfg_plain)) in
    let per_call_ns =
      Float.max 0. (t_instrumented -. t_plain) *. 1e9 /. float_of_int n
    in
    (per_call_ns, per_call_ns *. float_of_int calls /. (t_off *. 1e9) *. 100., t_off)
  in
  let runs = List.init overhead_passes (fun _ -> pass ()) in
  let per_call_ns = median (List.map (fun (ns, _, _) -> ns) runs) in
  let pct = median (List.map (fun (_, pct, _) -> pct) runs) in
  Printf.printf "%s: %.1f ns;  %d per suite pass\n" what per_call_ns calls;
  Printf.printf "suite pass (uninstrumented): %.1f ms\n"
    (median (List.map (fun (_, _, t) -> t) runs) *. 1e3);
  Printf.printf "overhead: %.3f%% of analysis (median of %d passes)  [%s]\n" pct
    overhead_passes
    (if pct < 2.0 then "PASS < 2%" else "FAIL >= 2%");
  (per_call_ns, pct)

(* Every hot path in the analyzer opens a span (through its probe);
   the claim that buys is that a disabled span is one atomic load and a
   branch. *)
let trace_overhead () =
  section
    "Trace overhead: disabled spans must cost < 2% of analysis time";
  (* Span volume of one real pass: enable tracing (deterministic tick
     clock), run the suite once, count every event pushed. *)
  Dda_obs.Trace.clear ();
  Dda_obs.Trace.enable ();
  ignore (analyze_all cfg_plain);
  let spans =
    List.length (Dda_obs.Trace.events ()) + Dda_obs.Trace.dropped ()
  in
  Dda_obs.Trace.disable ();
  Dda_obs.Trace.clear ();
  let per_span_ns, pct =
    instrumentation_overhead ~what:"disabled span" ~n:5_000_000 ~calls:spans
      ~loop:(fun acc n ->
        snd
          (time (fun () ->
               for i = 1 to n do
                 Dda_obs.Trace.wrap ~name:"bench.noop"
                   ~args:(fun _ -> [])
                   (fun () -> acc := !acc + i)
               done)))
  in
  ( "trace_overhead",
    Json_out.Obj
      [
        ("per_span_ns", Json_out.Float per_span_ns);
        ("disabled_overhead_pct", Json_out.Float pct);
      ] )

(* The telemetry plane's only data-path cost is the per-request
   attribution window the serve daemon opens around each analysis
   (scrapes, the access log and the admin listener run off the worker
   domains): one timed stage call inside an open window, against a
   suite pass with no window anywhere, where the inactive path is one
   atomic load per stage call. *)
let admin_overhead () =
  section
    "Admin-plane overhead: per-request attribution must cost < 2% of \
     analysis time";
  (* Stage-call volume of one real pass, counted by the window itself. *)
  let _, snap = Dda_obs.Attrib.collect (fun () -> ignore (analyze_all cfg_plain)) in
  let calls =
    List.fold_left
      (fun a (_, (s : Dda_obs.Attrib.stage_stat)) -> a + s.Dda_obs.Attrib.calls)
      0 snap.Dda_obs.Attrib.stages
  in
  let per_call_ns, pct =
    instrumentation_overhead ~what:"timed stage call (window open)"
      ~n:2_000_000 ~calls ~loop:(fun acc n ->
        (* Production time source (the serve daemon installs the same
           one), so the measured cost includes the clock reads. *)
        Dda_obs.Attrib.set_time_source (fun () ->
            int_of_float (Unix.gettimeofday () *. 1e9));
        let ((), t), _snap =
          Dda_obs.Attrib.collect (fun () ->
              time (fun () ->
                  for i = 1 to n do
                    Dda_obs.Attrib.time Dda_obs.Attrib.Svpc (fun () ->
                        acc := !acc + i)
                  done))
        in
        Dda_obs.Attrib.set_time_source Dda_obs.Clock.now;
        t)
  in
  ( "admin_overhead",
    Json_out.Obj
      [
        ("per_stage_call_ns", Json_out.Float per_call_ns);
        ("data_path_overhead_pct", Json_out.Float pct);
      ] )

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Each run returns the named blocks of the results file, in order. *)
let run_full () =
  print_endline
    "Reproduction of \"Efficient and Exact Data Dependence Analysis\"\n\
     (Maydan, Hennessy, Lam -- PLDI 1991) on the synthetic PERFECT Club:\n\
     the timed measurements. The deterministic tables (Tables 1-5 and 7,\n\
     the section 6 and 7 counts) are printed by: dune exec ddtest -- report";
  table6 ();
  let jobs = jobs_scaling () in
  certification ();
  let micro = microbench () in
  ablations ();
  let trace = trace_overhead () in
  let admin = admin_overhead () in
  let streaming = streaming_memory () in
  print_newline ();
  print_endline
    "Figure 1 (loop-residue graph): dune exec examples/loop_residue_graph.exe";
  [ micro; trace; admin; streaming; jobs ]

(* The CI profile: only the sections CI asserts on — seconds, not
   minutes. *)
let run_smoke () =
  print_endline "bench --smoke: reduced perf profile";
  let trace = trace_overhead () in
  let admin = admin_overhead () in
  let jobs = jobs_scaling () in
  [ trace; admin; jobs ]

let usage () =
  print_endline
    "usage: bench [--smoke] [--json [FILE]]\n\n\
    \  --json [FILE]    also write machine-readable results\n\
    \                   (default file: BENCH_results.json)\n\
    \  --smoke          reduced profile for CI (trace and admin-plane\n\
    \                   overhead, --jobs scaling)";
  exit 2

let () =
  let rec parse args (smoke, json) =
    match args with
    | [] -> (smoke, json)
    | "--smoke" :: rest -> parse rest (true, json)
    | "--json" :: file :: rest when String.length file > 0 && file.[0] <> '-' ->
      parse rest (smoke, Some file)
    | "--json" :: rest -> parse rest (smoke, Some "BENCH_results.json")
    | _ -> usage ()
  in
  let smoke, json = parse (List.tl (Array.to_list Sys.argv)) (false, None) in
  let blocks = if smoke then run_smoke () else run_full () in
  Option.iter
    (fun file ->
       let json =
         Json_out.Obj
           (("schema", Json_out.Int 2)
            :: ("mode", Json_out.Str (if smoke then "smoke" else "full"))
            :: blocks)
       in
       Out_channel.with_open_text file (fun oc ->
           output_string oc (Format.asprintf "%a@." Json_out.pp json));
       Printf.printf "\nresults written to %s\n" file)
    json
