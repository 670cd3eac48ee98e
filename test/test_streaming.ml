(* The streaming batch pipeline and its corpus fuzzer: fuzzed programs
   are always well-formed and deterministic in the seed; streaming a
   corpus from its text produces exactly the reports and metric deltas
   of [Stream.run_programs] over its parsed programs; a run killed at a random item and resumed from its journal
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
(* Streamed from text == run over parsed programs                      *)
(* ------------------------------------------------------------------ *)

(* The corpus both entries see: exactly what [Stream.of_fuzz] pulls,
   parsed up front for [Stream.run_programs]. *)
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
        List.map (fun (name, text) -> (name, Parser.parse_program text)) corpus
      in
      let before = Dda_obs.Metrics.snapshot () in
      let parsed_outcomes, parsed_summary = Stream.run_programs ~jobs:2 items in
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
        QCheck.Test.fail_reportf "metric deltas differ: parsed %s, stream %s"
          (String.concat "," (List.map string_of_int (deltas before mid)))
          (String.concat "," (List.map string_of_int (deltas mid after)));
      if summary.Stream.quarantined > 0 || parsed_summary.Stream.quarantined > 0
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
      let parsed_reports =
        List.map
          (function
            | Stream.Analyzed a -> (a.name, a.report)
            | Stream.Quarantined q ->
              QCheck.Test.fail_reportf "quarantined %s: %s" q.name q.error)
          parsed_outcomes
      in
      stream_reports = parsed_reports
      && compare summary.Stream.merged parsed_summary.Stream.merged = 0)

(* ------------------------------------------------------------------ *)
(* Crash at item k, resume                                             *)
(* ------------------------------------------------------------------ *)

(* The journal is a record log: a 27-byte header, then per record a
   4-byte big-endian length, a 16-byte digest and the payload. Start
   offsets of its complete records (a torn final one is left out),
   plus the file, read from that framing. *)
let journal_offsets journal =
  let ic = open_in_bin journal in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rec go off acc =
    if off + 20 > String.length s then List.rev acc
    else
      let next = off + 20 + Int32.to_int (String.get_int32_be s off) in
      if next > String.length s then List.rev acc else go next (off :: acc)
  in
  (go 27 [], s)

let journal_records journal = List.length (fst (journal_offsets journal))

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
          if journal_records j_crash <> k - 1 then
            QCheck.Test.fail_reportf "crash journal has %d records, want %d"
              (journal_records j_crash)
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
          && journal_records j_crash = n))


let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let n_torn = 2
let seed_torn = 7

let run_torn ?(resume = false) journal buf =
  Stream.run ~jobs:1 ~journal ~resume ~render:render_digest
    ~emit:(Buffer.add_string buf)
    (Stream.of_fuzz ~profile:Fuzz.Small ~seed:seed_torn n_torn)

(* Torn-tail recovery end to end, with the cut inside the final
   record's frame header and inside its payload (the record log's own
   suite covers every offset): the intact prefix replays, the torn
   item re-analyzes, and output and journal equal a clean run's. *)
let test_torn_tail_resumes () =
  let journal = Filename.temp_file "ddtorn" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      let b_clean = Buffer.create 256 in
      ignore (run_torn journal b_clean);
      let offsets, original = journal_offsets journal in
      let last_start = List.nth offsets (n_torn - 1) in
      List.iter
        (fun (where, cut) ->
          write_file journal (String.sub original 0 cut);
          Alcotest.(check int) (where ^ ": intact records") (n_torn - 1)
            (journal_records journal);
          let b_res = Buffer.create 256 in
          let s = run_torn ~resume:true journal b_res in
          Alcotest.(check int) (where ^ ": replayed") (n_torn - 1)
            s.Stream.replayed;
          Alcotest.(check string) (where ^ ": output") (Buffer.contents b_clean)
            (Buffer.contents b_res);
          let _, resumed = journal_offsets journal in
          Alcotest.(check bool) (where ^ ": journal equals the clean one") true
            (String.equal original resumed))
        [ ("frame header", last_start + 10); ("payload", last_start + 20 + 5) ])

(* Mid-file corruption is not a torn tail: a complete record failing
   its digest refuses the resume, before anything is emitted. *)
let test_corrupt_record_refuses () =
  let journal = Filename.temp_file "ddcorrupt" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      ignore (run_torn journal (Buffer.create 256));
      let offsets, original = journal_offsets journal in
      let b = Bytes.of_string original in
      let pos = List.hd offsets + 20 + 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
      write_file journal (Bytes.to_string b);
      let out = Buffer.create 256 in
      (match run_torn ~resume:true journal out with
       | _ -> Alcotest.fail "resumed from a corrupt journal"
       | exception Failure msg ->
         Alcotest.(check string) "refusal"
           (Printf.sprintf "journal %s: record 0 fails its digest check" journal)
           msg);
      Alcotest.(check string) "nothing emitted" "" (Buffer.contents out))

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
        (journal_records journal);
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

(* With [share_memo], merged unique counts are the shared tables'
   sizes, and a replayed record, which never touched the tables, adds
   its journaled counts: resuming a complete journal replays every item
   and reports the clean run's distinct-problem counts. *)
let test_shared_unique_counts_replay () =
  let journal = Filename.temp_file "ddshared" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      let run ~resume =
        (Stream.run ~share_memo:true ~jobs:1 ~journal ~resume
           ~render:render_digest ~emit:ignore
           (Stream.of_fuzz ~profile:Fuzz.Small ~seed:11 6))
          .Stream.merged
      in
      let unique (m : Analyzer.stats) =
        (m.Analyzer.memo_unique_nobounds, m.Analyzer.memo_unique_full)
      in
      let clean = run ~resume:false in
      Alcotest.(check bool) "the corpus has problems" true
        (clean.Analyzer.memo_unique_full > 0);
      Alcotest.(check (pair int int)) "replayed counts equal the clean run's"
        (unique clean)
        (unique (run ~resume:true)))

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
          Alcotest.test_case "torn tail resumes (frame header, payload)"
            `Quick test_torn_tail_resumes;
          Alcotest.test_case "a corrupt record refuses the resume" `Quick
            test_corrupt_record_refuses;
          Alcotest.test_case "stop leaves a resumable journal" `Quick
            test_stop_leaves_resumable_journal;
          Alcotest.test_case "shared unique counts survive a replay" `Quick
            test_shared_unique_counts_replay;
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
