(* The streaming batch pipeline and its corpus fuzzer: fuzzed programs
   are always well-formed and deterministic in the seed; streaming a
   corpus produces exactly the in-memory engine's reports and metric
   deltas; a run killed at a random item and resumed from its journal
   reproduces the uninterrupted run byte for byte; and the fuzzer's
   small profile survives the exhaustive-enumeration oracle. *)

open Dda_lang
open Dda_core
open Dda_engine
open Dda_perfect

(* ------------------------------------------------------------------ *)
(* Fuzzer                                                              *)
(* ------------------------------------------------------------------ *)

let arb_profile_seed_index =
  QCheck.make
    ~print:(fun (p, s, i) ->
      Printf.sprintf "(%s, seed=%d, index=%d)" (Fuzz.profile_name p) s i)
    QCheck.Gen.(
      triple (oneofl Fuzz.all_profiles) (int_bound 1_000_000)
        (int_bound 10_000))

let prop_fuzz_well_formed =
  QCheck.Test.make ~name:"fuzzed programs parse and pass semantic checks"
    ~count:300 arb_profile_seed_index (fun (profile, seed, index) ->
      let text = Fuzz.program profile ~seed ~index in
      match Parser.parse_program text with
      | exception Parser.Error (msg, _) ->
        QCheck.Test.fail_reportf "parse error: %s\n%s" msg text
      | exception Lexer.Error (msg, _) ->
        QCheck.Test.fail_reportf "lex error: %s\n%s" msg text
      | prog -> (
        match Semant.check prog with
        | [] -> true
        | errs ->
          QCheck.Test.fail_reportf "semant errors: %s\n%s"
            (String.concat "; "
               (List.map (fun e -> e.Semant.msg) errs))
            text))

let prop_fuzz_deterministic =
  QCheck.Test.make ~name:"same seed yields a byte-identical corpus"
    ~count:100 arb_profile_seed_index (fun (profile, seed, index) ->
      String.equal
        (Fuzz.program profile ~seed ~index)
        (Fuzz.program profile ~seed ~index))

let test_fuzz_seed_sensitivity () =
  (* Different seeds (or indices) do diverge — the corpus is not one
     program repeated. *)
  let texts =
    List.init 20 (fun i -> Fuzz.program Fuzz.Mixed ~seed:42 ~index:i)
    @ List.init 5 (fun s -> Fuzz.program Fuzz.Mixed ~seed:s ~index:0)
  in
  let distinct = List.sort_uniq String.compare texts in
  Alcotest.(check bool)
    "at least half the corpus is distinct" true
    (List.length distinct > List.length texts / 2)

(* ------------------------------------------------------------------ *)
(* Streamed == in-memory                                               *)
(* ------------------------------------------------------------------ *)

(* The corpus both engines see: exactly what [Stream.of_fuzz] pulls,
   materialized for the in-memory engine. *)
let fuzz_names_and_texts ~seed n =
  List.init n (fun index ->
      ( Printf.sprintf "fuzz:small:%d:%d" seed index,
        Fuzz.program Fuzz.Small ~seed ~index ))

let counter_names = [ "batch.items"; "batch.retries"; "batch.quarantined" ]

let deltas before after =
  List.map
    (fun k ->
      Dda_obs.Metrics.find_counter after k
      - Dda_obs.Metrics.find_counter before k)
    counter_names

let prop_stream_matches_inmem =
  QCheck.Test.make
    ~name:"streamed reports and metric deltas equal the in-memory engine's"
    ~count:20
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "(seed=%d, n=%d)" s n)
       QCheck.Gen.(pair (int_bound 100_000) (1 -- 4)))
    (fun (seed, n) ->
      let corpus = fuzz_names_and_texts ~seed n in
      let items =
        List.map
          (fun (name, text) ->
            { Batch.name; program = Parser.parse_program text })
          corpus
      in
      let before = Dda_obs.Metrics.snapshot () in
      let bres = Batch.run ~jobs:2 items in
      let mid = Dda_obs.Metrics.snapshot () in
      let streamed = ref [] in
      let summary =
        Stream.run ~jobs:3
          ~render:(fun o ->
            streamed := o :: !streamed;
            "")
          ~emit:ignore
          (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
      in
      let after = Dda_obs.Metrics.snapshot () in
      if deltas before mid <> deltas mid after then
        QCheck.Test.fail_reportf "metric deltas differ: inmem %s, stream %s"
          (String.concat "," (List.map string_of_int (deltas before mid)))
          (String.concat "," (List.map string_of_int (deltas mid after)));
      if summary.Stream.quarantined > 0 || bres.Batch.summary.Stream.quarantined > 0
      then
        QCheck.Test.fail_reportf "unexpected quarantine";
      let stream_reports =
        List.rev_map
          (function
            | Stream.Analyzed a -> (a.name, a.report)
            | Stream.Quarantined q ->
              QCheck.Test.fail_reportf "quarantined %s: %s" q.name
                q.error)
          !streamed
      in
      let inmem_reports =
        List.map
          (function
            | Stream.Analyzed a -> (a.name, a.report)
            | Stream.Quarantined q ->
              QCheck.Test.fail_reportf "quarantined %s: %s" q.name q.error)
          bres.Batch.outcomes
      in
      stream_reports = inmem_reports
      && compare summary.Stream.merged bres.Batch.summary.Stream.merged = 0)

(* ------------------------------------------------------------------ *)
(* Crash at item k, resume                                             *)
(* ------------------------------------------------------------------ *)

(* A content-bearing renderer: if resume replayed the wrong thing, the
   emitted bytes differ. *)
let render_digest = function
  | Stream.Analyzed a ->
    let s = a.report.Analyzer.stats in
    Printf.sprintf "%s: %d pairs, %d dependent, %d independent\n"
      a.name s.Analyzer.pairs s.Analyzer.dependent_pairs
      s.Analyzer.independent_pairs
  | Stream.Quarantined q ->
    Printf.sprintf "%s: QUARANTINED %s\n" q.name q.error

let prop_resume_equals_uninterrupted =
  QCheck.Test.make
    ~name:"a run killed at item k and resumed equals an uninterrupted run"
    ~count:15
    (QCheck.make
       ~print:(fun (s, n, k) ->
         Printf.sprintf "(seed=%d, n=%d, kill at %d)" s n k)
       QCheck.Gen.(
         map
           (fun (s, n, kraw) -> (s, n, 1 + (kraw mod n)))
           (triple (int_bound 100_000) (2 -- 5) (int_bound 100))))
    (fun (seed, n, k) ->
      let j_clean = Filename.temp_file "ddstream" ".journal" in
      let j_crash = Filename.temp_file "ddstream" ".journal" in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.clear ();
          Sys.remove j_clean;
          Sys.remove j_crash)
        (fun () ->
          let run ?(resume = false) journal buf =
            Stream.run ~jobs:2 ~journal ~resume ~render:render_digest
              ~emit:(Buffer.add_string buf)
              (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
          in
          let b_clean = Buffer.create 256 in
          let s_clean = run j_clean b_clean in
          (* The k-th journal append raises, as if the process died
             between completing item k and acknowledging it. *)
          Failpoint.set (Printf.sprintf "stream.journal=raise@%d" k);
          let b_crash = Buffer.create 256 in
          let crashed =
            match run j_crash b_crash with
            | _ -> false
            | exception Failpoint.Injected _ -> true
          in
          Failpoint.clear ();
          if not crashed then
            QCheck.Test.fail_reportf "failpoint did not fire (k=%d)" k;
          (* The journal the crash left behind validates, holds exactly
             the acknowledged items, and resuming from it reproduces
             the clean run exactly. *)
          if Stream.journal_records j_crash <> k - 1 then
            QCheck.Test.fail_reportf "crash journal has %d records, want %d"
              (Stream.journal_records j_crash)
              (k - 1);
          let b_res = Buffer.create 256 in
          let s_res = run ~resume:true j_crash b_res in
          if not (String.equal (Buffer.contents b_res) (Buffer.contents b_clean))
          then
            QCheck.Test.fail_reportf "output differs after resume:\n%s\nvs\n%s"
              (Buffer.contents b_res) (Buffer.contents b_clean);
          s_res.Stream.replayed = k - 1
          && s_res.Stream.total = s_clean.Stream.total
          && compare s_res.Stream.merged s_clean.Stream.merged = 0
          && Stream.journal_records j_crash = n))

(* Torn-tail recovery, exhaustively: a clean journal truncated at every
   byte offset inside its final record must resume to a byte-identical
   run — the intact prefix replays, the torn item re-analyzes. *)
let test_torn_tail_every_offset () =
  let n = 2 in
  let seed = 7 in
  let journal = Filename.temp_file "ddtorn" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      let run ?(resume = false) buf =
        Stream.run ~jobs:1 ~journal ~resume ~render:render_digest
          ~emit:(Buffer.add_string buf)
          (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
      in
      let b_clean = Buffer.create 256 in
      ignore (run b_clean);
      let clean_out = Buffer.contents b_clean in
      let ic = open_in_bin journal in
      let original = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* The final record spans from one past the second-to-last
         newline to the end of the file. *)
      let total = String.length original in
      let last_start = 1 + String.rindex_from original (total - 2) '\n' in
      for cut = last_start to total - 1 do
        let oc = open_out_bin journal in
        output_string oc (String.sub original 0 cut);
        close_out oc;
        (if cut > last_start then
           (* A nonempty torn tail is visible to validation — as a torn
              tail, not an error — and not counted. *)
           match Stream.journal_records journal with
           | k ->
             if k <> n - 1 then
               Alcotest.failf "cut at %d: %d records, want %d" cut k (n - 1)
           | exception Failure msg ->
             Alcotest.failf "cut at %d: validation refused: %s" cut msg);
        let b_res = Buffer.create 256 in
        let s = run ~resume:true b_res in
        if s.Stream.replayed <> n - 1 then
          Alcotest.failf "cut at %d: replayed %d, want %d" cut
            s.Stream.replayed (n - 1);
        if not (String.equal (Buffer.contents b_res) clean_out) then
          Alcotest.failf "cut at %d: resumed output differs" cut
      done)

(* SIGINT's library half: [stop] ends intake, in-flight work is
   journaled, and the journal resumes to a byte-identical run. *)
let test_stop_leaves_resumable_journal () =
  let n = 6 in
  let seed = 11 in
  let journal = Filename.temp_file "ddstop" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      let b_clean = Buffer.create 256 in
      let clean =
        Stream.run ~jobs:1 ~render:render_digest
          ~emit:(Buffer.add_string b_clean)
          (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
      in
      Alcotest.(check bool) "clean run not interrupted" false
        clean.Stream.interrupted;
      (* Stop after the first emitted item. *)
      let emitted = ref 0 in
      let b_int = Buffer.create 256 in
      let s_int =
        Stream.run ~jobs:1 ~journal ~stop:(fun () -> !emitted >= 1)
          ~render:render_digest
          ~emit:(fun chunk ->
            incr emitted;
            Buffer.add_string b_int chunk)
          (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
      in
      Alcotest.(check bool) "interrupted" true s_int.Stream.interrupted;
      Alcotest.(check bool) "stopped early" true (s_int.Stream.total < n);
      Alcotest.(check int) "everything emitted was journaled"
        s_int.Stream.total
        (Stream.journal_records journal);
      let b_res = Buffer.create 256 in
      let s_res =
        Stream.run ~jobs:1 ~journal ~resume:true ~render:render_digest
          ~emit:(Buffer.add_string b_res)
          (Stream.of_fuzz ~profile:Fuzz.Small ~seed n)
      in
      Alcotest.(check bool) "resumed run completes" false
        s_res.Stream.interrupted;
      Alcotest.(check int) "resumed from the stop point"
        s_int.Stream.total s_res.Stream.replayed;
      Alcotest.(check string) "resumed output equals uninterrupted"
        (Buffer.contents b_clean) (Buffer.contents b_res))

let test_resume_requires_journal () =
  Alcotest.check_raises "resume without journal"
    (Invalid_argument "Stream.run: resume requires a journal") (fun () ->
      ignore
        (Stream.run ~resume:true ~jobs:1
           ~render:(fun _ -> "")
           ~emit:ignore
           (Stream.of_fuzz ~profile:Fuzz.Small ~seed:1 1)))

let test_config_digest_sensitivity () =
  let d = Stream.config_digest Analyzer.default_config ~verify:false in
  Alcotest.(check bool)
    "verify flag changes the fingerprint" false
    (String.equal d (Stream.config_digest Analyzer.default_config ~verify:true));
  Alcotest.(check bool)
    "config changes the fingerprint" false
    (String.equal d
       (Stream.config_digest
          { Analyzer.default_config with Analyzer.symbolic = false }
          ~verify:false))

let test_perfect_source_names () =
  let rec drain src acc =
    match src () with
    | None -> List.rev acc
    | Some it -> drain src (it.Stream.name :: acc)
  in
  let names = drain (Stream.of_perfect ~amplify:2 ()) [] in
  Alcotest.(check int)
    "13 programs x 2 copies" 26 (List.length names);
  Alcotest.(check bool)
    "amplified names are indexed" true
    (List.mem "perfect:AP:0" names && List.mem "perfect:AP:1" names);
  (* Copy 0 must be the original suite program; copy 1 must differ. *)
  let item name =
    let rec find src =
      match src () with
      | None -> Alcotest.fail ("missing " ^ name)
      | Some it -> if String.equal it.Stream.name name then it else find src
    in
    find (Stream.of_perfect ~amplify:2 ())
  in
  let spec = Option.get (Programs.find "AP") in
  Alcotest.(check bool)
    "copy 0 is the original" true
    (String.equal ((item "perfect:AP:0").Stream.text ()) (Programs.source spec));
  Alcotest.(check bool)
    "copy 1 is fresh material" false
    (String.equal ((item "perfect:AP:1").Stream.text ()) (Programs.source spec))

(* ------------------------------------------------------------------ *)
(* Fuzzer vs the exhaustive oracle                                     *)
(* ------------------------------------------------------------------ *)

(* Satellite smoke test: a couple hundred small-bound fuzzed programs
   through full verification — certificate checking plus the
   brute-force iteration-space oracle. Any disagreement between the
   cascade and ground truth is an error here. *)
let test_fuzz_against_oracle () =
  let failures = ref [] in
  for index = 0 to 199 do
    let text = Fuzz.program Fuzz.Small ~seed:2026 ~index in
    let prog = Parser.parse_program text in
    let s = Dda_check.Verify.run prog in
    if s.Dda_check.Verify.errors > 0 then failures := index :: !failures
  done;
  Alcotest.(check (list int)) "indices with oracle/certificate errors" []
    (List.rev !failures)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "streaming"
    [
      qsuite "fuzz"
        [ prop_fuzz_well_formed; prop_fuzz_deterministic ];
      qsuite "stream" [ prop_stream_matches_inmem ];
      qsuite "resume" [ prop_resume_equals_uninterrupted ];
      ( "unit",
        [
          Alcotest.test_case "seed sensitivity" `Quick
            test_fuzz_seed_sensitivity;
          Alcotest.test_case "resume requires a journal" `Quick
            test_resume_requires_journal;
          Alcotest.test_case "torn tail recovers at every byte offset" `Quick
            test_torn_tail_every_offset;
          Alcotest.test_case "stop leaves a resumable journal" `Quick
            test_stop_leaves_resumable_journal;
          Alcotest.test_case "config fingerprint" `Quick
            test_config_digest_sensitivity;
          Alcotest.test_case "perfect source amplification" `Quick
            test_perfect_source_names;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "200 small fuzzed programs vs the oracle" `Slow
            test_fuzz_against_oracle;
        ] );
    ]
