(* ddtest: command-line front end to the exact dependence analyzer.

   Subcommands:
     analyze    <file>  per-pair dependence report (text or JSON; memo
                        tables persist across runs with --memo-file)
     batch      <files> analyze a whole corpus concurrently (--jobs N) in
                        bounded memory; --journal/--resume checkpoint and
                        continue interrupted runs, --fuzz/--perfect
                        generate the corpus on the fly
     fuzz       <n>     emit programs from the seeded corpus fuzzer
     parallel   <file>  which loops are parallelizable
     transform  <file>  loop reversal/interchange legality
     distribute <file>  Allen-Kennedy loop distribution plan
     annotate   <file>  re-emit the source with parallelism annotations
     cc         <file>  compile to C with OpenMP pragmas
     check      <file>  certificate-check every verdict; with --trace,
                        compare every verdict with one traced run
     lint       <file>  parallelism lint: per-loop doall/vectorizable/
                        reduction/serial verdicts with blocking evidence,
                        races on `parallel`-annotated loops (text/json/sarif);
                        --differential checks every DOALL loop on one run
     depgraph   <file>  dependence graph (Graphviz)
     graph      <file>  loop-residue graphs (Graphviz)
     passes     <file>  show the program after the optimizer prepass
     perfect    <name>  emit a synthetic PERFECT Club program
     prime      <file>  build a memo table from the whole suite
     metrics    <files> analyze, then print every registered metric
     report             print the paper's deterministic tables
     serve              the analysis daemon; query is its client, top a
                        live view of its admin plane, cache compact
                        compacts its durable memo cache *)

open Cmdliner
open Dda_lang
open Dda_core

let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    failwith (path ^ ": is a directory");
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let src = if String.equal path "-" then In_channel.input_all stdin else read_file path in
  match Parser.parse_program src with
  | prog ->
    (match Semant.check prog with
     | [] -> ()
     | errs ->
       List.iter (fun e -> Dda_obs.Log.warn "%a" Semant.pp_error e) errs);
    prog
  | exception Parser.Error (msg, loc) ->
    Format.eprintf "%s:%a: syntax error: %s@." path Loc.pp loc msg;
    exit 1
  | exception Lexer.Error (msg, loc) ->
    Format.eprintf "%s:%a: lexical error: %s@." path Loc.pp loc msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let config_term =
  let symbolic =
    Arg.(value & opt bool true & info [ "symbolic" ] ~doc:"Treat loop-invariant unknowns as symbolic terms.")
  in
  let directions =
    Arg.(value & opt bool true & info [ "directions" ] ~doc:"Compute direction/distance vectors.")
  in
  let memo =
    Arg.(
      value
      & opt
          (enum
             [
               ("off", Analyzer.Memo_off);
               ("simple", Analyzer.Memo_simple);
               ("improved", Analyzer.Memo_improved);
               ("symmetric", Analyzer.Memo_symmetric);
             ])
          Analyzer.Memo_improved
      & info [ "memo" ]
          ~doc:
            "Memoization scheme: $(b,off), $(b,simple), $(b,improved) or \
             $(b,symmetric).")
  in
  let prune =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Direction.no_pruning);
               ("full", Direction.full_pruning);
             ])
          Direction.full_pruning
      & info [ "prune" ]
          ~doc:
            "Direction-vector pruning: $(b,none) or $(b,full) (the paper's \
             two rules).")
  in
  let fm_tighten =
    Arg.(value & flag & info [ "fm-tighten" ] ~doc:"Enable Omega-style integer tightening in Fourier-Motzkin.")
  in
  let no_pipeline =
    Arg.(value & flag & info [ "no-pipeline" ] ~doc:"Skip the optimizer prepass.")
  in
  let cross_nest =
    Arg.(value & flag & info [ "cross-nest" ] ~doc:"Also test pairs that share no loop.")
  in
  let budget_branches =
    Arg.(
      value
      & opt int Budget.default_limits.Budget.fm_branches
      & info [ "budget-branches" ] ~docv:"N"
          ~doc:"Fourier-Motzkin branch-and-bound budget (branch splits per query).")
  in
  let budget_depth =
    Arg.(
      value
      & opt int Budget.default_limits.Budget.fm_depth
      & info [ "budget-depth" ] ~docv:"N"
          ~doc:"Fourier-Motzkin elimination depth budget per query.")
  in
  let budget_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-steps" ] ~docv:"N"
          ~doc:
            "Solver step budget per query; running out degrades the verdict \
             to a flagged conservative one instead of failing.")
  in
  let budget_rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-rows" ] ~docv:"N"
          ~doc:"Cap on the rows a system may grow to during elimination.")
  in
  let budget_coeff_bits =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-coeff-bits" ] ~docv:"N"
          ~doc:"Cap on coefficient magnitudes (in bits) during elimination.")
  in
  let build symbolic directions memo prune fm_tighten no_pipeline cross_nest
      fm_branches fm_depth max_steps max_rows max_coeff_bits =
    let positive name = function
      | Some n when n < 1 -> failwith (Printf.sprintf "--%s must be positive" name)
      | v -> v
    in
    let req_positive name n = ignore (positive name (Some n)); n in
    let fm_branches = req_positive "budget-branches" fm_branches in
    let fm_depth = req_positive "budget-depth" fm_depth in
    let max_steps = positive "budget-steps" max_steps in
    let max_rows = positive "budget-rows" max_rows in
    let max_coeff_bits = positive "budget-coeff-bits" max_coeff_bits in
    {
      Analyzer.symbolic;
      memo;
      directions;
      prune;
      fm_tighten;
      run_pipeline = not no_pipeline;
      within_nest_only = not cross_nest;
      limits = { Budget.fm_depth; fm_branches; max_steps; max_rows; max_coeff_bits };
    }
  in
  Term.(
    const build $ symbolic $ directions $ memo $ prune $ fm_tighten
    $ no_pipeline $ cross_nest $ budget_branches $ budget_depth $ budget_steps
    $ budget_rows $ budget_coeff_bits)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Source file ($(b,-) for stdin).")

(* Observability options, shared by the analysis-running subcommands.
   The trace file is written from [at_exit] so the error exits (batch
   quarantine's 3, verification's 2) still produce a loadable trace. *)
let obs_term =
  let log_level =
    Arg.(
      value
      & opt (enum Dda_obs.Log.all_levels) Dda_obs.Log.Warn
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Diagnostic verbosity on stderr: $(b,quiet), $(b,warn), \
             $(b,info) or $(b,debug). Machine-readable stdout is never \
             mixed with diagnostics at any level.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record analysis spans and write them as Chrome trace_event \
             JSON to $(docv) on exit (one track per worker domain; load \
             at https://ui.perfetto.dev).")
  in
  let setup level trace_out =
    Dda_obs.Log.set_level level;
    match trace_out with
    | None -> ()
    | Some path ->
      (* Fail on an unwritable path now, with the standard error
         convention — not from the at_exit hook after all the work. *)
      close_out (open_out path);
      (* Real microsecond timestamps, installed only here: the library
         default is a deterministic tick counter, and the Unix
         dependency stays out of lib/obs. *)
      Dda_obs.Clock.set_source (fun () ->
          int_of_float (Unix.gettimeofday () *. 1e6));
      Dda_obs.Trace.enable ();
      at_exit (fun () ->
          (* An exception escaping at_exit prints a raw fatal error;
             degrade to a logged error instead. *)
          match Dda_obs.Trace.write_chrome path with
          | () ->
            let dropped = Dda_obs.Trace.dropped () in
            if dropped > 0 then
              Dda_obs.Log.warn "trace: %d events lost to ring-buffer overflow"
                dropped
          | exception Sys_error msg -> Dda_obs.Log.err "trace: %s" msg)
  in
  Term.(const setup $ log_level $ trace_out)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let pp_outcome fmt (r : Analyzer.pair_report) =
  match r.outcome with
  | Analyzer.Constant true -> Format.fprintf fmt "dependent (constant subscripts)"
  | Analyzer.Constant false -> Format.fprintf fmt "independent (constant subscripts)"
  | Analyzer.Assumed_dependent -> Format.fprintf fmt "assumed dependent (not affine)"
  | Analyzer.Gcd_independent -> Format.fprintf fmt "independent (extended gcd)"
  | Analyzer.Tested t ->
    if not t.dependent then
      Format.fprintf fmt "independent%s"
        (if t.implicit_bb then " (via direction vectors)" else "")
    else begin
      Format.fprintf fmt "dependent";
      (match t.degraded with
       | Some reason ->
         Format.fprintf fmt " (degraded: %s budget exhausted)"
           (Budget.reason_name reason)
       | None -> if t.unknown then Format.fprintf fmt " (assumed: depth exhausted)");
      (match t.decided_by with
       | Some test -> Format.fprintf fmt " [%a]" Cascade.pp_test test
       | None -> ());
      if t.directions <> [] then begin
        Format.fprintf fmt " directions:";
        List.iter
          (fun v ->
             Format.fprintf fmt " %a%a" Direction.pp_vector v
               (fun fmt v ->
                  Format.fprintf fmt "[%a]" Analyzer.pp_dep_kind
                    (Analyzer.vector_kind r v))
               v)
          t.directions
      end;
      match t.distance with
      | Some d ->
        Format.fprintf fmt " distance: (%s)"
          (String.concat ","
             (Array.to_list (Array.map Dda_numeric.Zint.to_string d)))
      | None -> ()
    end

(* One pair's report line, as [analyze] and [batch] print it. *)
let pp_pair_line fmt (r : Analyzer.pair_report) =
  Format.fprintf fmt "%s[%s]  %a x %a:  %a@." r.array_name
    (if r.self_pair then "self" else "pair")
    Loc.pp r.loc1 Loc.pp r.loc2 pp_outcome r

let pp_stats fmt (s : Analyzer.stats) =
  Format.fprintf fmt "@.-- statistics --@.";
  Format.fprintf fmt "pairs analyzed:      %d@." s.pairs;
  Format.fprintf fmt "constant subscripts: %d@." s.constant_cases;
  Format.fprintf fmt "gcd independent:     %d@." s.gcd_independent;
  Format.fprintf fmt "assumed dependent:   %d@." s.assumed;
  Format.fprintf fmt "plain tests:         svpc=%d acyclic=%d loop-residue=%d fourier=%d@."
    s.plain_by_test.(0) s.plain_by_test.(1) s.plain_by_test.(2) s.plain_by_test.(3);
  Format.fprintf fmt "direction tests:     svpc=%d acyclic=%d loop-residue=%d fourier=%d@."
    s.dir_counts.by_test.(0) s.dir_counts.by_test.(1) s.dir_counts.by_test.(2)
    s.dir_counts.by_test.(3);
  Format.fprintf fmt "memo (gcd table):    %d lookups, %d hits, %d unique@."
    s.memo_lookups_nobounds s.memo_hits_nobounds s.memo_unique_nobounds;
  Format.fprintf fmt "memo (full table):   %d lookups, %d hits, %d unique@."
    s.memo_lookups_full s.memo_hits_full s.memo_unique_full;
  Format.fprintf fmt "verdicts:            %d independent, %d dependent@."
    s.independent_pairs s.dependent_pairs;
  (* Only when something degraded: exact runs keep their exact output. *)
  if s.degraded_pairs > 0 then
    Format.fprintf fmt "degraded (budget):   %d@." s.degraded_pairs

let print_stats s = Format.printf "%a" pp_stats s

(* The paper's cross-compilation memoization: the memo tables live in
   a durable cache store (the format behind [serve --cache]), replayed
   on open and extended by every miss. A file written under another
   configuration or build is set aside as [path.rejected] with a
   warning, and the run starts cold under the requested flags; a
   damaged record drops itself and everything after it. One fsync at
   the end, not one per append. *)
let with_memo_file path config f =
  let c, _ = Dda_cache.Durable.create ~path ~fsync:false ~config () in
  let r = f (Dda_cache.Durable.cache c) in
  Dda_cache.Durable.close c;
  r

let analyze_cmd =
  let run () file config stats memo_file format verify =
    let { Analyzer.pairs; _ } = Analyzer.front_end config (load file) in
    let report =
      match memo_file with
      | None -> Analyzer.analyze_sites ~config pairs
      | Some path ->
        with_memo_file path config (fun cache ->
            Analyzer.analyze_sites ~config ~cache pairs)
    in
    (* The report printed is the report checked, memo file or not. *)
    let verification =
      if verify then Some (Dda_check.Verify.verify_report ~config pairs report)
      else None
    in
    (match format with
     | `Text ->
       List.iter (Format.printf "%a" pp_pair_line) report.pair_reports;
       if stats then print_stats report.stats;
       Option.iter
         (fun s ->
            Format.printf "@.-- verification --@.%a"
              (Dda_check.Verify.pp_text ~file) s)
         verification
     | `Json -> (
         match verification with
         | None -> Format.printf "%a@." Json_out.pp (Json_out.report report)
         | Some s ->
           Format.printf "%a@." Json_out.pp
             (Json_out.Obj
                [
                  ("report", Json_out.report report);
                  ("verification", Dda_check.Verify.to_json ~file s);
                ])));
    match verification with
    | Some s when s.Dda_check.Verify.errors > 0 -> exit 2
    | _ -> ()
  in
  let stats_flag = Arg.(value & flag & info [ "stats" ] ~doc:"Print analysis statistics.") in
  let memo_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "memo-file" ] ~docv:"FILE"
          ~doc:
            "Persist the memoization tables across runs in the cache store \
             $(docv) (the $(b,serve --cache) format; $(b,ddtest cache \
             compact) works on it): replay it if it exists, append every \
             new entry. A file written under other flags or damaged \
             records only cost recomputation, never a wrong verdict.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-derive and validate every verdict's certificate after \
             analyzing (see $(b,ddtest check)); exits 2 when any \
             certificate fails.")
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Report dependence for every reference pair")
    Term.(
      const run $ obs_term $ file_arg $ config_term $ stats_flag $ memo_file
      $ format $ verify_flag)

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let open Dda_engine in
  (* The output deliberately never mentions the job count: in the
     default (independent) mode it is byte-identical whatever --jobs
     is, and the determinism tests compare runs across job counts.

     Each item is rendered as one chunk (JSON: one compact JSONL
     object per program), and the corpus summary follows the last one.
     The chunk is also what the journal stores, which is what makes a
     resumed run byte-identical to an uninterrupted one. *)
  let render_text = function
    | Stream.Analyzed a ->
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      Format.fprintf fmt "== %s ==@." a.name;
      List.iter (pp_pair_line fmt) a.report.Analyzer.pair_reports;
      Option.iter
        (fun s ->
          Format.fprintf fmt "%a" (Dda_check.Verify.pp_text ~file:a.name) s)
        a.verification;
      Option.iter
        (fun l ->
          Format.fprintf fmt "%s" (Dda_analysis.Lint.to_text ~file:a.name l))
        a.lint;
      Format.pp_print_flush fmt ();
      Buffer.contents buf
    | Stream.Quarantined q ->
      Format.asprintf "== %s ==@.QUARANTINED after %d attempt%s: %s@." q.name
        q.attempts
        (if q.attempts = 1 then "" else "s")
        q.error
  in
  let render_json o =
    Json_out.to_line
    @@
    match o with
    | Stream.Analyzed a ->
      Json_out.Obj
        ([ ("file", Json_out.Str a.name); ("report", Json_out.report a.report) ]
        @ (match a.verification with
           | Some s ->
             [ ("verification", Dda_check.Verify.to_json ~file:a.name s) ]
           | None -> [])
        @
        match a.lint with
        | Some l -> [ ("lint", Dda_analysis.Lint.to_json ~file:a.name l) ]
        | None -> [])
    | Stream.Quarantined q ->
      Json_out.Obj
        [
          ("file", Json_out.Str q.name);
          ("quarantined", Json_out.Bool true);
          ("attempts", Json_out.Int q.attempts);
          ("error", Json_out.Str q.error);
        ]
  in
  let run () files jobs share_memo verify lint retries backoff_ms
      item_timeout_ms config format journal resume fuzz fuzz_seed
      fuzz_profile perfect amplify =
    let sources =
      (if files = [] then []
       else
         [
           Stream.concat
             (List.map
                (fun f ->
                  if Sys.file_exists f && Sys.is_directory f then
                    Stream.of_dir f
                  else Stream.of_files [ f ])
                files);
         ])
      @ (if perfect then [ Stream.of_perfect ~amplify () ] else [])
      @
      if fuzz > 0 then
        [ Stream.of_fuzz ~profile:fuzz_profile ~seed:fuzz_seed fuzz ]
      else []
    in
    if sources = [] then
      failwith "batch: no corpus (give FILES, --perfect or --fuzz N)";
    let source = Stream.concat sources in
    let render =
      match format with `Text -> render_text | `Json -> render_json
    in
    let emit chunk =
      print_string chunk;
      flush stdout
    in
    (* With a journal, SIGINT/SIGTERM request a clean stop instead of
       dying mid-write: finish what is in flight, journal and fsync it,
       and exit 130 — the journal then resumes exactly where the run
       left off. Without a journal there is nothing to save; the
       default die-now behavior stands. *)
    let stop_flag = Atomic.make false in
    let restore_signals =
      if journal = None then fun () -> ()
      else begin
        let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
        let prev =
          List.map (fun s -> (s, Sys.signal s handler)) [ Sys.sigint; Sys.sigterm ]
        in
        fun () -> List.iter (fun (s, h) -> Sys.set_signal s h) prev
      end
    in
    let summary =
      Fun.protect ~finally:restore_signals (fun () ->
          Stream.run ~config ~share_memo ~verify ~lint ~retries
            ~backoff_ms ?item_timeout_ms ?journal ~resume
            ~stop:(fun () -> Atomic.get stop_flag)
            ~jobs ~render ~emit source)
    in
    if summary.interrupted then begin
      (* No summary block: the run is incomplete by design. Everything
         emitted so far is already on stdout and in the journal. *)
      Dda_obs.Log.warn
        "stream: interrupted after %d item(s); journal %s is flushed — \
         resume with --resume"
        summary.total
        (Option.value ~default:"-" journal);
      exit 130
    end;
    let engine = summary.retried > 0 || summary.quarantined > 0 in
    (match format with
     | `Text ->
       Format.printf "@.== corpus: %d programs ==@." summary.total;
       if engine then
         Format.printf "engine: %d retried, %d quarantined@." summary.retried
           summary.quarantined;
       print_stats summary.merged
     | `Json ->
       (* No metrics registry here: replayed items do not re-run, so
          registry counters are not resume-invariant — and the summary
          must be byte-identical between a clean and a resumed run. *)
       print_string
         (Json_out.to_string
            (Json_out.Obj
               ([
                  ("corpus", Json_out.Int summary.total);
                  ("merged_stats", Json_out.stats summary.merged);
                ]
               @
               if engine then
                 [
                   ( "engine",
                     Json_out.Obj
                       [
                         ("retried", Json_out.Int summary.retried);
                         ("quarantined", Json_out.Int summary.quarantined);
                       ] );
                 ]
               else []))
         ^ "\n"));
    flush stdout;
    (* The scale CI job greps this line to watch peak memory. *)
    Dda_obs.Log.info
      "stream: %d items (%d replayed), %d retried, %d quarantined, peak rss %d kB"
      summary.total summary.replayed summary.retried summary.quarantined
      (Option.value ~default:0 (Dda_obs.Rusage.peak_rss_kb ()));
    if summary.quarantined > 0 then exit 3
    else if summary.verify_errors > 0 then exit 2
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILES"
          ~doc:
            "Source files to analyze; directories are expanded to their \
             $(b,*.dd) files.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Number of worker domains.")
  in
  let share_memo_arg =
    Arg.(
      value & flag
      & info [ "share-memo" ]
          ~doc:
            "Share one live lock-striped memoization table pair across every \
             worker domain for the whole corpus (faster; verdicts are \
             unchanged, but memo hit counters then depend on cross-domain \
             timing when $(b,--jobs) > 1).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Certificate-check every program's report on its worker domain; \
             exits 2 when any certificate fails.")
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the parallelism linter on every program: classify its \
             dependences, summarize each loop's parallelizability and check \
             $(b,parallel) annotations. Lint results ride along with each \
             item's report; exits 2 when any annotated loop races.")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"How many times a crashed item is retried before quarantine.")
  in
  let backoff_arg =
    Arg.(
      value & opt int 50
      & info [ "retry-backoff-ms" ] ~docv:"MS"
          ~doc:"Delay before the first retry; doubled for each further one.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "item-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-item cooperative deadline: analysis running past it comes \
             back as a flagged conservative (degraded) report instead of \
             hanging the batch.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: append every completed item's result to \
             $(docv) (fsynced before the result is printed), so an \
             interrupted run can continue with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the $(b,--journal) file: journaled items are \
             replayed byte-for-byte (after checking they still match the \
             corpus) and analysis restarts at the first un-journaled item. \
             The final output is byte-identical to an uninterrupted run. A \
             final record torn by a crash mid-append is dropped with a \
             warning and re-analyzed; a corrupt record, a foreign file or a \
             journal written under another configuration is rejected before \
             anything is printed.")
  in
  let fuzz_arg =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Append $(docv) random affine programs from the corpus fuzzer \
             to the corpus (see $(b,--seed) and $(b,--fuzz-profile)).")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Fuzzer corpus seed: the same seed always generates the same \
             programs.")
  in
  let fuzz_profile_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("mixed", Dda_perfect.Fuzz.Mixed); ("small", Dda_perfect.Fuzz.Small);
             ])
          Dda_perfect.Fuzz.Mixed
      & info [ "fuzz-profile" ] ~docv:"PROFILE"
          ~doc:
            "Fuzzer profile: $(b,mixed) (deep nests, symbolic bounds, \
             pattern-library material) or $(b,small) (tiny constant bounds, \
             exhaustively checkable).")
  in
  let perfect_arg =
    Arg.(
      value & flag
      & info [ "perfect" ]
          ~doc:
            "Append the synthetic PERFECT Club suite to the corpus, \
             generated on the fly ($(b,--amplify) controls how many \
             seed-shifted copies of each program).")
  in
  let amplify_arg =
    Arg.(
      value & opt int 1
      & info [ "amplify" ] ~docv:"N"
          ~doc:
            "With $(b,--perfect): generate $(docv) seed-shifted copies of \
             each suite program.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze a corpus of programs concurrently on a pool of domains, \
          pulled item by item in bounded memory (at most about twice \
          $(b,--jobs) items in flight); per-program reports come back in \
          input order with merged corpus statistics, and the default mode \
          is byte-identical for every $(b,--jobs) value. An item whose \
          worker crashes is retried and then quarantined, as is a \
          malformed or unreadable file — the rest of the corpus still \
          completes; exits 3 when anything was quarantined. The run can \
          be journaled ($(b,--journal)) and resumed ($(b,--resume)) after \
          a crash.")
    Term.(
      const run $ obs_term $ files_arg $ jobs_arg $ share_memo_arg
      $ verify_arg $ lint_arg $ retries_arg $ backoff_arg $ timeout_arg
      $ config_term $ format $ journal_arg $ resume_arg
      $ fuzz_arg $ fuzz_seed_arg $ fuzz_profile_arg $ perfect_arg
      $ amplify_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run () count seed profile dir start =
    if count < 1 then failwith "fuzz: COUNT must be positive";
    Option.iter
      (fun d ->
        if not (Sys.file_exists d) then Unix.mkdir d 0o755
        else if not (Sys.is_directory d) then
          failwith (Printf.sprintf "fuzz: %s is not a directory" d))
      dir;
    for index = start to start + count - 1 do
      let text = Dda_perfect.Fuzz.program profile ~seed ~index in
      match dir with
      | None -> print_string text
      | Some d ->
        let path =
          Filename.concat d (Printf.sprintf "fuzz-%d-%04d.dd" seed index)
        in
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text)
    done
  in
  let count_arg =
    Arg.(
      required & pos 0 (some int) None
      & info [] ~docv:"COUNT" ~doc:"How many programs to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Corpus seed; the same seed always yields the same programs.")
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("mixed", Dda_perfect.Fuzz.Mixed); ("small", Dda_perfect.Fuzz.Small);
             ])
          Dda_perfect.Fuzz.Mixed
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:"Fuzzer profile: $(b,mixed) or $(b,small).")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Write each program to $(docv)/fuzz-$(b,S)-$(b,NNNN).dd instead \
             of concatenating them on stdout.")
  in
  let start_arg =
    Arg.(
      value & opt int 0
      & info [ "start" ] ~docv:"I"
          ~doc:
            "First corpus index to generate (programs are indexed, so a \
             corpus can be produced in slices).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random affine programs from the seeded corpus fuzzer — \
          the same generator $(b,ddtest batch --fuzz) streams from. \
          Deterministic in ($(b,--profile), $(b,--seed), index).")
    Term.(
      const run $ obs_term $ count_arg $ seed_arg $ profile_arg $ dir_arg
      $ start_arg)

(* ------------------------------------------------------------------ *)
(* parallel                                                            *)
(* ------------------------------------------------------------------ *)

(* The lint summary is the one parallelism decider: a loop is
   parallelizable only when it is certified DOALL (no carried array
   dependence, no carried scalar). *)
let parallel_cmd =
  let run file config =
    let res = Dda_analysis.Lint.run ~config (load file) in
    List.iter
      (fun (li : Dda_analysis.Summary.loop_info) ->
         Format.printf "loop %s (id %d): %s@." li.var li.lid
           (if li.verdict = Dda_analysis.Summary.Doall then "PARALLELIZABLE"
            else "serial"))
      res.Dda_analysis.Lint.summary.Dda_analysis.Summary.loops
  in
  Cmd.v (Cmd.info "parallel" ~doc:"Mark loops as parallelizable or serial")
    Term.(const run $ file_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* passes                                                              *)
(* ------------------------------------------------------------------ *)

let passes_cmd =
  let run file =
    let prog = load file in
    Format.printf "%s" (Pretty.program_to_string (Dda_passes.Pipeline.run prog))
  in
  Cmd.v (Cmd.info "passes" ~doc:"Show the program after the optimizer prepass")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* perfect                                                             *)
(* ------------------------------------------------------------------ *)

let perfect_cmd =
  let run list name =
    if list then
      List.iter
        (fun (s : Dda_perfect.Programs.spec) -> print_endline s.name)
        Dda_perfect.Programs.all
    else
      match name with
      | None ->
        Format.eprintf "a program name (or --list) is required@.";
        exit 1
      | Some name -> (
          match Dda_perfect.Programs.find name with
          | Some spec -> print_string (Dda_perfect.Programs.source spec)
          | None ->
            Format.eprintf "unknown program %s; available:" name;
            List.iter
              (fun (s : Dda_perfect.Programs.spec) -> Format.eprintf " %s" s.name)
              Dda_perfect.Programs.all;
            Format.eprintf "@.";
            exit 1)
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Program code (AP, CS, ...).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the program codes, one per line.")
  in
  Cmd.v (Cmd.info "perfect" ~doc:"Emit a synthetic PERFECT Club program")
    Term.(const run $ list_arg $ name_arg)

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let run file =
    (* The default prepass and extraction; every same-array pair with a
       write, across nests too, and no self pairs. *)
    let config =
      { Analyzer.default_config with
        Analyzer.within_nest_only = false; directions = false }
    in
    let { Analyzer.pairs; _ } = Analyzer.front_end config (load file) in
    let printed = ref 0 in
    List.iter
      (fun ((s1 : Affine.site), (s2 : Affine.site)) ->
         match Build_problem.build s1 s2 with
         | None -> ()
         | Some p -> (
             match Gcd_test.run p with
             | Gcd_test.Independent _ -> ()
             | Gcd_test.Reduced red -> (
                 (* Mirror the cascade: only systems that survive SVPC
                    and Acyclic reach the loop-residue graph. *)
                 match Svpc.run red.Gcd_test.system with
                 | Svpc.Partial (box, multi) -> (
                     match Acyclic.run box multi with
                     | Acyclic.Cycle (box', _, core)
                       when Loop_residue.applicable
                              (List.map (fun (dr : Cert.drow) -> dr.row) core) ->
                       incr printed;
                       Format.printf "/* pair %a x %a */@.%s@." Loc.pp s1.site_loc
                         Loc.pp s2.site_loc
                         (Loop_residue.to_dot box' core)
                     | _ -> ())
                 | _ -> ())))
      pairs;
    if !printed = 0 then
      Format.printf "no pair reaches the loop-residue stage in this program@."
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print loop-residue constraint graphs (Graphviz) for residual systems")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* depgraph                                                            *)
(* ------------------------------------------------------------------ *)

let depgraph_cmd =
  let run file config =
    let prog = load file in
    print_string (Dda_analysis.Depgraph.to_dot (Analyzer.analyze ~config prog))
  in
  Cmd.v
    (Cmd.info "depgraph" ~doc:"Print the dependence graph in Graphviz format")
    Term.(const run $ file_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* transform                                                           *)
(* ------------------------------------------------------------------ *)

let transform_cmd =
  let run file config =
    let prog = load file in
    (* Legality needs fully refined vectors: a pruned "*" level reads as
       "could be >" and conservatively blocks every reordering. *)
    let config =
      {
        config with
        Analyzer.directions = true;
        prune = Direction.no_pruning;
        memo =
          (match config.Analyzer.memo with
           | Analyzer.Memo_off -> Analyzer.Memo_off
           | _ -> Analyzer.Memo_simple);
      }
    in
    let front = Analyzer.front_end config prog in
    let report = Analyzer.analyze_sites ~config front.pairs in
    let table = Affine.loop_table front.sites in
    let loops = List.map fst table in
    let name lid = Option.value (List.assoc_opt lid table) ~default:"?" in
    List.iter
      (fun lid ->
         Format.printf "loop %s: %s@." (name lid)
           (if Dda_analysis.Transforms.reversal_legal report ~lid then "reversible"
            else "NOT reversible"))
      loops;
    (* Pairwise interchange of loops that are directly nested. *)
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        Format.printf "interchange %s <-> %s: %s@." (name a) (name b)
          (if Dda_analysis.Transforms.interchange_legal report ~lid_a:a ~lid_b:b then "legal"
           else "ILLEGAL");
        pairs rest
      | _ -> []
    in
    ignore (pairs loops);
    if List.length loops >= 2 && List.length loops <= 4 then begin
      let perms = Dda_analysis.Transforms.legal_permutations report loops in
      Format.printf "legal loop orders:";
      List.iter
        (fun perm ->
           Format.printf " (%s)" (String.concat "," (List.map name perm)))
        perms;
      Format.printf "@.";
      Format.printf "band fully permutable (tilable): %s@."
        (if Dda_analysis.Transforms.fully_permutable report loops then "yes" else "no")
    end
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Report loop reversal and interchange legality (assumes the program \
          is one perfect nest; for anything else, interpret per pair of \
          directly nested loops)")
    Term.(const run $ file_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* cc: emit C with OpenMP pragmas on the loops proven parallel         *)
(* ------------------------------------------------------------------ *)

let cc_cmd =
  let run file =
    let prog = load file in
    (* The OpenMP pragmas come from the lint summary: only loops the
       summary certifies DOALL (exact dependence refutation, no carried
       scalars, never degraded evidence) are emitted parallel. *)
    let res = Dda_analysis.Lint.run ~config:Analyzer.default_config prog in
    let parallel = Dda_analysis.Summary.is_doall res.Dda_analysis.Lint.summary in
    match
      Dda_codegen.C_emit.emit ~parallel res.Dda_analysis.Lint.prepared
    with
    | Ok src -> print_string src
    | Error reason ->
      Format.eprintf "cannot compile to C: %s@." reason;
      exit 1
  in
  Cmd.v
    (Cmd.info "cc"
       ~doc:
         "Compile to C: loops the analysis proves parallel carry an OpenMP \
          pragma; the generated main dumps the final machine state \
          (compile the output with gcc -fopenmp)")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* annotate: re-emit the source with parallelism annotations           *)
(* ------------------------------------------------------------------ *)

let annotate_cmd =
  let run file config =
    let res = Dda_analysis.Lint.run ~config (load file) in
    let doall = Dda_analysis.Summary.is_doall res.Dda_analysis.Lint.summary in
    let buf = Buffer.create 1024 in
    let rec emit indent (s : Ast.stmt) =
      let pad = String.make indent ' ' in
      match s.Ast.sdesc with
      | Ast.For f ->
        let tag =
          if doall s.Ast.sloc then "# PARALLEL\n"
          else "# serial (carries a dependence)\n"
        in
        Buffer.add_string buf (pad ^ tag);
        Buffer.add_string buf
          (Format.asprintf "%s%sfor %s = %a to %a%t do\n" pad
             (if f.parallel then "parallel " else "")
             f.var Pretty.pp_expr f.lo Pretty.pp_expr f.hi
             (fun fmt ->
                match f.step with
                | None -> ()
                | Some st -> Format.fprintf fmt " step %a" Pretty.pp_expr st));
        List.iter (emit (indent + 2)) f.body;
        Buffer.add_string buf (pad ^ "end\n")
      | Ast.If (cond, then_, else_) ->
        Buffer.add_string buf
          (Format.asprintf "%sif %a then\n" pad Pretty.pp_cond cond);
        List.iter (emit (indent + 2)) then_;
        if else_ <> [] then begin
          Buffer.add_string buf (pad ^ "else\n");
          List.iter (emit (indent + 2)) else_
        end;
        Buffer.add_string buf (pad ^ "end\n")
      | Ast.Assign _ | Ast.Read _ ->
        (* Lean on the pretty-printer for simple statements. *)
        let text = Format.asprintf "%a" Pretty.pp_stmt s in
        String.split_on_char '\n' text
        |> List.iter (fun line -> Buffer.add_string buf (pad ^ line ^ "\n"))
    in
    List.iter (emit 0) res.Dda_analysis.Lint.prepared;
    print_string (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Re-emit the (optimized) program with a parallelism annotation above every loop")
    Term.(const run $ file_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* check: validate the analysis against its own certificates (and,     *)
(* with --trace, against actual execution)                             *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run file config format no_oracle corrupt trace =
    let prog = load file in
    if trace then begin
      match Dda_analysis.Exec_check.pairs prog with
      | Cannot_run (msg, loc) ->
        Format.eprintf "cannot execute the program: %s at %a@." msg Loc.pp loc;
        exit 1
      | Ran { pairs; mismatches = []; unexercised } ->
        Format.printf "OK: all %d pairs agree with the execution trace%s@." pairs
          (if unexercised = 0 then ""
           else
             Printf.sprintf
               " (%d dependent claim%s on inputs or guards this run did not exercise)"
               unexercised
               (if unexercised = 1 then "" else "s"))
      | Ran { mismatches; _ } ->
        List.iter
          (fun ((r : Analyzer.pair_report), claim_dep) ->
             let dep b = if b then "dependent" else "independent" in
             Format.printf "MISMATCH %s %a x %a: analysis says %s, execution shows %s@."
               r.array_name Loc.pp r.loc1 Loc.pp r.loc2 (dep claim_dep)
               (dep (not claim_dep)))
          mismatches;
        Format.printf "%d mismatches@." (List.length mismatches);
        exit 2
    end
    else begin
      let summary =
        Dda_check.Verify.run ~config ~oracle:(not no_oracle) ~corrupt prog
      in
      (match format with
       | `Text -> Format.printf "%a" (Dda_check.Verify.pp_text ~file) summary
       | `Json ->
         Format.printf "%a@." Json_out.pp
           (Dda_check.Verify.to_json ~file summary));
      if summary.Dda_check.Verify.errors > 0 then exit 2
    end
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let no_oracle =
    Arg.(
      value & flag
      & info [ "no-oracle" ]
          ~doc:
            "Skip the exhaustive-enumeration differential oracle (keep only \
             certificate validation).")
  in
  let corrupt =
    Arg.(
      value & flag
      & info [ "corrupt" ]
          ~doc:
            "Deliberately mangle every certificate and witness before \
             checking: a self-test that the checker rejects bad evidence \
             (expect errors and exit code 2).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Validate verdicts against one run of the tracing interpreter \
             instead of against certificates (the prepass off, inputs read \
             as 0, at most 5,000,000 statement executions).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Self-verify the analysis: replay every pair, validate each \
          verdict's certificate or witness against the original problem with \
          the trusted checker, cross-check decided systems against \
          exhaustive enumeration, and explain conservative verdicts with \
          warnings. Exits 2 when any certificate fails.")
    Term.(const run $ file_arg $ config_term $ format $ no_oracle $ corrupt $ trace)

(* ------------------------------------------------------------------ *)
(* lint: the parallelism linter and annotation race detector          *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let run () file config format differential =
    let prog = load file in
    let res = Dda_analysis.Lint.run ~config prog in
    (match format with
     | `Text -> print_string (Dda_analysis.Lint.to_text ~file res)
     | `Json ->
       Format.printf "%a@." Json_out.pp (Dda_analysis.Lint.to_json ~file res)
     | `Sarif ->
       Format.printf "%a@." Json_out.pp
         (Dda_analysis.Lint.to_sarif ~file res));
    if differential then begin
      match
        Dda_analysis.Exec_check.doall ~prepared:res.Dda_analysis.Lint.prepared
          res.Dda_analysis.Lint.summary
      with
      | Cannot_run (msg, loc) ->
        Dda_obs.Log.warn
          "differential: cannot execute the program (%s at %a); no DOALL \
           ruling validated" msg Loc.pp loc
      | Ran { refuted = Some msg; _ } ->
        Format.eprintf "ddtest lint: differential check failed: %s@." msg;
        exit 1
      | Ran { doall; executed; refuted = None } ->
        Dda_obs.Log.info
          "differential: %d of %d DOALL loops executed, none shows a \
           dependence" executed doall
    end;
    if res.Dda_analysis.Lint.errors > 0 then exit 2
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ]
          ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif).")
  in
  let differential =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Additionally run the optimized program once (input n = 6) and \
             check every DOALL loop on the trace: no array cell touched by \
             two iterations with one writing, no scalar the loop writes \
             read before the iteration writes it. A refuted loop exits 1; \
             a run that cannot complete validates nothing (a warning).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Dependence-driven parallelism lint: classify every dependence \
          edge (flow/anti/output), mark every loop doall, vectorizable, \
          reduction-candidate or serial with certificate-backed blocking \
          evidence, and report races on $(b,parallel)-annotated loops. \
          Exits 0 when clean (warnings included), 1 on input errors, 2 \
          when any race finding is an error. Budget-degraded evidence \
          only ever downgrades findings to warnings — and only ever \
          denies a doall verdict, never grants one.")
    Term.(
      const run $ obs_term $ file_arg $ config_term $ format $ differential)

(* ------------------------------------------------------------------ *)
(* prime: build a memo table from the synthetic PERFECT suite          *)
(* ------------------------------------------------------------------ *)

let prime_cmd =
  let run out config =
    with_memo_file out config (fun cache ->
        List.iter
          (fun (spec : Dda_perfect.Programs.spec) ->
             let prog = Parser.parse_program (Dda_perfect.Programs.source spec) in
             ignore (Analyzer.analyze ~config ~cache prog))
          Dda_perfect.Programs.all);
    Format.printf "primed %s from the 13 synthetic PERFECT programs@." out
  in
  let out_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Memo cache store to create or extend (see analyze --memo-file).")
  in
  Cmd.v
    (Cmd.info "prime"
       ~doc:
         "The paper's \"standard table\" idea: analyze the whole benchmark \
          suite once and keep the memo tables in a cache store for later \
          compilations (use with analyze --memo-file)")
    Term.(const run $ out_arg $ config_term)

(* ------------------------------------------------------------------ *)
(* distribute                                                          *)
(* ------------------------------------------------------------------ *)

let distribute_cmd =
  let run file lid =
    let prog = load file in
    let config =
      {
        Analyzer.default_config with
        Analyzer.prune = Direction.no_pruning;
        memo = Analyzer.Memo_simple;
        run_pipeline = false;
      }
    in
    match Dda_analysis.Distribute.body_stmts prog ~lid with
    | None ->
      Format.eprintf
        "loop %d not found, or its body is not a sequence of array assignments@."
        lid;
      exit 1
    | Some stmts ->
      let report = Analyzer.analyze ~config prog in
      let plan = Dda_analysis.Distribute.plan_loop report ~lid ~stmts in
      List.iteri
        (fun k (g : Dda_analysis.Distribute.group) ->
           Format.printf "group %d (%s):" k
             (if g.parallel then "parallel" else "serial");
           List.iter (fun l -> Format.printf " %a" Loc.pp l) g.stmts;
           Format.printf "@.")
        plan.groups;
      (match Dda_analysis.Distribute.apply prog plan with
       | Some distributed ->
         Format.printf "@.-- distributed program --@.%s"
           (Pretty.program_to_string distributed)
       | None -> Format.printf "@.(loop bounds are not pure: not rewritten)@.")
  in
  let lid_arg =
    Arg.(
      value & opt int 0
      & info [ "loop" ] ~docv:"N"
          ~doc:"Which loop to distribute (pre-order number, default 0).")
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:"Allen-Kennedy loop distribution: group statements by dependence SCC")
    Term.(const run $ file_arg $ lid_arg)

(* ------------------------------------------------------------------ *)
(* metrics: run the analysis and dump the metrics registry             *)
(* ------------------------------------------------------------------ *)

let metrics_cmd =
  let run () files config format =
    (* The lint pipeline is a superset of Analyzer.analyze (same pair
       analysis, plus classification), so its lint.* counters appear
       alongside the stage/memo counters. *)
    List.iter (fun f -> ignore (Dda_analysis.Lint.run ~config (load f))) files;
    let snap = Dda_obs.Metrics.snapshot () in
    match format with
    | `Text -> Format.printf "%a" Dda_obs.Metrics.pp_text snap
    | `Json -> print_endline (Dda_obs.Metrics.to_json_string snap)
  in
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILES" ~doc:"Source files to analyze.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Analyze the files, then print every registered metric — stage \
          decision counters, memo hit counters, budget exhaustions, \
          log2-bucketed histograms. Counts are a pure function of the \
          analysis work, so they are reproducible run to run.")
    Term.(const run $ obs_term $ files_arg $ config_term $ format)

(* ------------------------------------------------------------------ *)
(* report: the paper's evaluation tables on the PERFECT corpus         *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run () format = Report.print format in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Rerun the paper's evaluation on the synthetic PERFECT Club and \
          print every deterministic table — per-stage decisions (Table 1), \
          memoization (Tables 2 and 3), direction-vector tests (Tables 4, 5 \
          and 7), accuracy against the GCD + Banerjee baseline and each \
          test's independent answers (section 7), implicit branch-and-bound \
          and unresolved verdicts — with the published totals where the \
          report has them. Output is deterministic (counts only), so it can \
          be diffed against a committed baseline. Timings are \
          bench/main.exe's.")
    Term.(const run $ obs_term $ format)

(* ------------------------------------------------------------------ *)
(* serve / query                                                       *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (stale files left by a \
                killed predecessor are replaced).")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Durable memo cache: every memo miss is appended (and fsynced) \
             here, and a restart replays it so warm answers survive even \
             kill -9. A damaged file degrades to a cold start — torn tails \
             are truncated, mismatched fingerprints are set aside as \
             $(docv).rejected — never to a wrong verdict.")
  in
  let no_fsync_arg =
    Arg.(
      value & flag
      & info [ "no-cache-fsync" ]
          ~doc:"Skip the fsync after each cache append (faster, but a crash \
                may lose recent records; never corrupts).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Maximum outstanding requests; beyond it the server sheds \
                load with an explicit JSON error instead of queueing.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 0
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (0 = none); an expired \
                deadline degrades remaining verdicts soundly instead of \
                hanging a worker. Requests can override with \
                $(b,timeout_ms).")
  in
  let admin_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Serve the HTTP admin plane on 127.0.0.1:$(docv) — \
             $(b,/metrics) (Prometheus text exposition), $(b,/healthz), \
             $(b,/readyz), $(b,/status), $(b,/tracez). Port 0 picks an \
             ephemeral port (logged at startup). The admin plane is \
             read-only and never load-bearing: its failure cannot fail a \
             query.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per request to $(docv): request id, op, \
             latency, shed/quarantined/degraded flags, memo hits, budget \
             steps. Write failures are counted \
             ($(b,serve.access_log.failed)), never fatal.")
  in
  let slow_arg =
    Arg.(
      value & opt int 0
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Log a warning for requests slower than $(docv) ms (0 = \
                off).")
  in
  let run () socket cache no_fsync jobs queue_limit request_timeout_ms
      admin_port access_log slow_ms config =
    (* An unbindable socket path (missing directory, permission) or any
       other OS-level failure is an input error: one line, exit 1. *)
    try
      (* Stage attribution in explain blocks should be wall time, not
         deterministic ticks, when serving real traffic. *)
      Dda_obs.Attrib.set_time_source (fun () ->
          int_of_float (Unix.gettimeofday () *. 1e9));
      let server, recovery =
        Dda_server.Server.create
          {
            Dda_server.Server.socket_path = socket;
            jobs;
            queue_limit;
            request_timeout_ms;
            analyzer = config;
            cache_path = cache;
            cache_fsync = not no_fsync;
            admin_port;
            access_log;
            slow_ms;
          }
      in
      (match recovery with
       | Some r when r.Dda_cache.Store.records > 0 || r.Dda_cache.Store.dropped_bytes > 0 ->
         Dda_obs.Log.info "cache: warm start: %d record(s) recovered, %d byte(s) dropped"
           r.Dda_cache.Store.records r.Dda_cache.Store.dropped_bytes
       | _ -> ());
      (* Graceful drain on both signals: finish in-flight requests,
         flush and fsync the cache, release the socket, exit 0. *)
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Dda_server.Server.drain server)))
        [ Sys.sigint; Sys.sigterm ];
      Dda_server.Server.run server
    with Unix.Unix_error (e, fn, arg) ->
      failwith
        (Printf.sprintf "serve: %s %s: %s" fn
           (if arg = "" then socket else arg)
           (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: a long-lived JSONL service on a Unix \
          socket, with per-request deadlines, bounded queueing with load \
          shedding, request quarantine, a durable, corruption-detecting \
          memo cache that makes restarts warm — even after kill -9 — and \
          an optional HTTP admin plane ($(b,--admin-port)) with \
          Prometheus metrics.")
    Term.(
      const run $ obs_term $ socket_arg $ cache_arg $ no_fsync_arg $ jobs_arg
      $ queue_arg $ timeout_arg $ admin_arg $ access_log_arg $ slow_arg
      $ config_term)

let query_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running $(b,ddtest serve).")
  in
  let files_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"FILES" ~doc:"Programs to analyze.")
  in
  let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping first.") in
  let status_arg =
    Arg.(value & flag & info [ "status" ] ~doc:"Ask for server status last.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Request per-program statistics (off by default: statistics \
                depend on cache temperature, answers do not).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Request per-stage attribution (time per cascade stage, \
                memo hits, budget steps) with each analysis — why was \
                this query slow?")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline override.")
  in
  let run () socket files ping status stats explain timeout_ms =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    (try Unix.connect fd (ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       failwith
         (Printf.sprintf "query: cannot connect to %s: %s" socket
            (Unix.error_message e)));
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* 0 ok; 2 any error response; 3 any shed response (the greater
       wins, so one exit code summarizes a whole request mix). *)
    let worst = ref 0 in
    let rpc req =
      output_string oc (Json_out.to_line req);
      flush oc;
      match input_line ic with
      | line ->
        print_endline line;
        (match Json_out.of_string line with
         | Ok j when Json_out.member "ok" j = Some (Json_out.Bool true) -> ()
         | Ok j ->
           let shed =
             Json_out.member "shed" j = Some (Json_out.Bool true)
           in
           worst := max !worst (if shed then 3 else 2)
         | Error _ -> worst := max !worst 2)
      | exception End_of_file ->
        failwith "query: server closed the connection"
    in
    if ping then rpc (Json_out.Obj [ ("op", Json_out.Str "ping") ]);
    List.iteri
      (fun i f ->
        rpc
          (Json_out.Obj
             ([
                ("op", Json_out.Str "analyze");
                ("id", Json_out.Int i);
                ("program", Json_out.Str (read_file f));
              ]
             @ (if stats then [ ("stats", Json_out.Bool true) ] else [])
             @ (if explain then [ ("explain", Json_out.Bool true) ] else [])
             @
             match timeout_ms with
             | Some ms -> [ ("timeout_ms", Json_out.Int ms) ]
             | None -> [])))
      files;
    if status then rpc (Json_out.Obj [ ("op", Json_out.Str "status") ]);
    Unix.close fd;
    if !worst > 0 then exit !worst
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Client for $(b,ddtest serve): send analyze/ping/status requests \
          over its socket and print one JSON response per line.")
    Term.(
      const run $ obs_term $ socket_arg $ files_arg $ ping_arg $ status_arg
      $ stats_arg $ explain_arg $ timeout_arg)

(* ------------------------------------------------------------------ *)
(* top: live view over the admin plane                                 *)
(* ------------------------------------------------------------------ *)

(* One-shot HTTP GET against the loopback admin plane; enough protocol
   for our own Admin module (Connection: close, no chunking). *)
let admin_get ~port path =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "top: cannot connect to 127.0.0.1:%d: %s" port
              (Unix.error_message e)));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nConnection: close\r\n\r\n"
          path port
      in
      let b = Bytes.of_string req in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (Bytes.length b - !off)
      done;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; slurp ()
        | exception Unix.Unix_error (EINTR, _, _) -> slurp ()
      in
      slurp ();
      let raw = Buffer.contents buf in
      let code =
        match String.split_on_char ' ' raw with
        | _ :: c :: _ -> (match int_of_string_opt c with Some c -> c | None -> 0)
        | _ -> 0
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
                  && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        let s = find 0 in
        String.sub raw s (String.length raw - s)
      in
      (code, body))

let top_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Admin port of a running $(b,ddtest serve --admin-port).")
  in
  let interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh interval.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (no screen clearing) — \
                scriptable output.")
  in
  let scrape_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scrape" ] ~docv:"PATH"
          ~doc:
            "Instead of the live view, fetch $(docv) (e.g. \
             $(b,/metrics), $(b,/healthz)) once, print the raw body and \
             exit — 0 on HTTP 200, 2 otherwise. A tiny curl substitute \
             for tests and scripts.")
  in
  (* Smallest le bound at which the cumulative count reaches the
     q-quantile of the histogram; the +Inf bucket answers "p99 beyond
     the largest finite bucket". *)
  let percentile (h : Dda_obs.Expo.parsed_hist) q =
    if h.Dda_obs.Expo.p_count = 0 then "-"
    else begin
      let want =
        let exact = float_of_int h.Dda_obs.Expo.p_count *. q in
        max 1 (int_of_float (ceil exact))
      in
      let rec go = function
        | [] -> "-"
        | (le, cum) :: rest -> if cum >= want then le else go rest
      in
      match go h.Dda_obs.Expo.p_cumulative with
      | "+Inf" -> ">max"
      | ns -> (
          match int_of_string_opt ns with
          | None -> ns
          | Some ns ->
            if ns >= 1_000_000_000 then Printf.sprintf "%.1fs" (float_of_int ns /. 1e9)
            else if ns >= 1_000_000 then Printf.sprintf "%dms" (ns / 1_000_000)
            else if ns >= 1_000 then Printf.sprintf "%dus" (ns / 1_000)
            else Printf.sprintf "%dns" ns)
    end
  in
  let render ~port ~interval_ms ~prev_requests parsed =
    let counter name =
      match List.assoc_opt name parsed.Dda_obs.Expo.p_counters with
      | Some v -> v
      | None -> 0
    in
    let gauge name =
      List.assoc_opt name parsed.Dda_obs.Expo.p_gauges
    in
    let hist name =
      List.assoc_opt name parsed.Dda_obs.Expo.p_histograms
    in
    let requests = counter "dda_serve_requests" in
    let qps =
      match prev_requests with
      | None -> "-"
      | Some p ->
        Printf.sprintf "%.1f"
          (float_of_int (requests - p) /. (float_of_int interval_ms /. 1000.))
    in
    let hits = counter "dda_memo_hits" and lookups = counter "dda_memo_lookups" in
    let hit_rate =
      if lookups = 0 then "-"
      else Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int lookups)
    in
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "ddtest top — 127.0.0.1:%d" port;
    (match gauge "dda_serve_uptime_ns" with
     | Some ns -> line "uptime: %.1fs" (float_of_int ns /. 1e9)
     | None -> ());
    (match gauge "dda_serve_peak_rss_kb" with
     | Some kb -> line "rss: %d kB (peak)" kb
     | None -> ());
    line "requests: %d (qps %s)  in-flight: %d  shed: %d  quarantined: %d"
      requests qps
      (match gauge "dda_serve_in_flight" with Some n -> n | None -> 0)
      (counter "dda_serve_shed")
      (counter "dda_serve_quarantined");
    line "memo: %d hits / %d lookups (hit rate %s)  stripe contended: %d"
      hits lookups hit_rate
      (counter "dda_memo_stripe_contended");
    line "trace dropped: %d  access-log failures: %d"
      (counter "dda_trace_dropped")
      (counter "dda_serve_access_log_failed");
    line "%-10s %8s %8s %8s" "op" "count" "p50" "p99";
    List.iter
      (fun op ->
         match hist (Printf.sprintf "dda_serve_op_%s_ns" op) with
         | None -> ()
         | Some h ->
           line "%-10s %8d %8s %8s" op h.Dda_obs.Expo.p_count
             (percentile h 0.50) (percentile h 0.99))
      [ "analyze"; "ping"; "status"; "other" ];
    (requests, Buffer.contents buf)
  in
  let run () port interval_ms once scrape =
    match scrape with
    | Some path ->
      let code, body = admin_get ~port path in
      print_string body;
      if code <> 200 then exit 2
    | None ->
      let prev = ref None in
      let continue = ref true in
      while !continue do
        let code, body = admin_get ~port "/metrics" in
        if code <> 200 then failwith (Printf.sprintf "top: /metrics answered %d" code);
        (match Dda_obs.Expo.parse body with
         | Error msg -> failwith ("top: bad exposition: " ^ msg)
         | Ok parsed ->
           let requests, frame =
             render ~port ~interval_ms ~prev_requests:!prev parsed
           in
           prev := Some requests;
           if not once then print_string "\027[2J\027[H";
           print_string frame;
           flush stdout);
        if once then continue := false
        else Unix.sleepf (float_of_int interval_ms /. 1000.)
      done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view over a running server's admin plane: polls \
          $(b,/metrics) and renders qps, per-op latency percentiles, memo \
          hit rate, stripe contention, shed count and peak RSS. With \
          $(b,--scrape) it degrades into a one-shot HTTP GET for \
          scripting.")
    Term.(const run $ obs_term $ port_arg $ interval_arg $ once_arg $ scrape_arg)

(* ------------------------------------------------------------------ *)
(* cache: administration of the durable memo store                     *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let compact_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"The cache file written by $(b,ddtest serve --cache).")
    in
    let no_fsync_arg =
      Arg.(
        value & flag
        & info [ "no-fsync" ]
            ~doc:"Skip the fsync before the atomic rename (faster; a crash \
                  may leave the old file, never a mix).")
    in
    let run () path no_fsync config =
      (* Store.compact raises Failure for everything refusable — missing
         file, bad magic, fingerprint mismatch — which the top-level
         handler turns into a one-line diagnostic and exit 1. *)
      let c =
        Dda_cache.Store.compact ~fsync:(not no_fsync) ~path ~config ()
      in
      if c.Dda_cache.Store.damaged_bytes > 0 then
        Dda_obs.Log.warn
          "cache %s: dropped %d damaged trailing byte(s) (replay would \
           have dropped them too)"
          path c.Dda_cache.Store.damaged_bytes;
      Printf.printf "%s: %d record(s) -> %d record(s), %d bytes -> %d bytes\n"
        path c.Dda_cache.Store.before_records c.Dda_cache.Store.after_records
        c.Dda_cache.Store.before_bytes c.Dda_cache.Store.after_bytes
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a durable cache file keeping the last binding of every \
            key — dropping duplicate appends from racing domains and any \
            superseded bindings — via an fsynced temporary and an atomic \
            rename. The analyzer configuration flags must match the ones \
            the cache was written under (the header fingerprint is \
            checked; a mismatch refuses with the file untouched). Do not \
            run it while a server is appending to the same file.")
      Term.(const run $ obs_term $ file_arg $ no_fsync_arg $ config_term)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Administer the durable memo cache files written by \
             $(b,ddtest serve).")
    [ compact_cmd ]

(* Exit codes: 0 success; 1 input or usage errors; 2 verification or
   trace failures (and query error responses); 3 batch quarantine (and
   query shed responses); 130 a journaled streaming run stopped by
   SIGINT/SIGTERM (resumable). No exception may escape to a raw OCaml
   backtrace — everything expected becomes a one-line diagnostic on
   stderr, and cmdliner's own CLI-error code folds into 1. *)
let () =
  (* The [kill] failpoint action should die exactly as under kill -9 —
     no at_exit, no flushing — which the library default (plain [exit])
     cannot do without a unix dependency. *)
  Failpoint.set_kill_handler (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigkill);
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ddtest" ~version:"1.0"
      ~doc:"Exact data dependence analysis (Maydan-Hennessy-Lam, PLDI 1991)"
  in
  let group =
    Cmd.group ~default info
      [
        analyze_cmd;
        batch_cmd;
        serve_cmd;
        query_cmd;
        top_cmd;
        cache_cmd;
        fuzz_cmd;
        parallel_cmd;
        passes_cmd;
        perfect_cmd;
        graph_cmd;
        depgraph_cmd;
        transform_cmd;
        distribute_cmd;
        check_cmd;
        lint_cmd;
        prime_cmd;
        annotate_cmd;
        cc_cmd;
        metrics_cmd;
        report_cmd;
      ]
  in
  let code =
    try Cmd.eval ~catch:false group with
    | Sys_error msg | Failure msg | Invalid_argument msg ->
      Format.eprintf "ddtest: error: %s@." msg;
      1
    | Failpoint.Injected _ as e ->
      Format.eprintf "ddtest: error: %s@." (Printexc.to_string e);
      1
    | Interp.Runtime_error (msg, loc) ->
      Format.eprintf "ddtest: error: %s at %a@." msg Loc.pp loc;
      1
  in
  exit (if code = Cmd.Exit.cli_error then 1 else code)
