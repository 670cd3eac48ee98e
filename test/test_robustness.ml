(* Resource governance and fault injection: budget accounting, the
   failpoint harness, degraded-verdict soundness, and the batch
   engine's retry/quarantine isolation. *)

open Dda_numeric
open Dda_core
open Dda_engine
open Test_support

let z = Zint.of_int

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.create { Budget.default_limits with max_steps = Some 10 } in
  for _ = 1 to 10 do
    Budget.tick b
  done;
  Alcotest.(check int) "steps counted" 10 (Budget.steps_used b);
  Alcotest.check_raises "11th step exhausts" (Budget.Exhausted Budget.Steps)
    (fun () -> Budget.tick b);
  (* Sticky: once spent, every later check re-raises. *)
  Alcotest.check_raises "sticky" (Budget.Exhausted Budget.Steps) (fun () ->
      Budget.check_rows b 1);
  Alcotest.(check bool) "spent recorded" true
    (Budget.spent b = Some Budget.Steps)

let test_budget_rows_and_coeff () =
  let b =
    Budget.create
      { Budget.default_limits with max_rows = Some 5; max_coeff_bits = Some 8 }
  in
  Budget.check_rows b 5;
  Alcotest.check_raises "row cap" (Budget.Exhausted Budget.Rows) (fun () ->
      Budget.check_rows b 6);
  let b =
    Budget.create
      { Budget.default_limits with max_rows = Some 5; max_coeff_bits = Some 8 }
  in
  Budget.check_coeff b (z 256);
  Budget.check_coeff b (z (-256));
  Alcotest.check_raises "coeff cap" (Budget.Exhausted Budget.Coeff) (fun () ->
      Budget.check_coeff b (z 257))

let test_budget_cancel () =
  let calls = ref 0 in
  let b =
    Budget.create
      ~cancel:(fun () ->
        incr calls;
        !calls > 1)
      Budget.default_limits
  in
  (* The cancel callback is polled every few dozen ticks, not on each. *)
  Alcotest.check_raises "cancel becomes Deadline"
    (Budget.Exhausted Budget.Deadline) (fun () ->
      for _ = 1 to 100_000 do
        Budget.tick b
      done)

let test_budget_fastpath_charging () =
  (* Every coefficient here is tiny, so the whole solve stays on the
     Zint native-int fast path — step charging must fire there exactly
     as on the limb path: an unlimited run's step count, replayed as
     the cap, succeeds with the same verdict, and one step fewer
     exhausts with [Steps]. *)
  let sys =
    Consys.make ~nvars:3
      [
        Consys.row_of_ints [ 1; 1; -1 ] 4;
        Consys.row_of_ints [ -1; 2; 1 ] 5;
        Consys.row_of_ints [ 2; -1; 0 ] 3;
        Consys.row_of_ints [ 0; -1; 1 ] 2;
        Consys.row_of_ints [ -1; 0; 0 ] 0;
        Consys.row_of_ints [ 0; -1; 0 ] 0;
        Consys.row_of_ints [ 0; 0; -1 ] 0;
      ]
  in
  let b0 = Budget.unlimited () in
  let r0 = Fourier.run ~budget:b0 sys in
  let steps = Budget.steps_used b0 in
  Alcotest.(check bool) "a Small-only solve is charged steps" true (steps > 0);
  let run cap =
    Fourier.run
      ~budget:(Budget.create { Budget.default_limits with max_steps = Some cap })
      sys
  in
  let same_verdict a b =
    match (a, b) with
    | Fourier.Infeasible _, Fourier.Infeasible _ -> true
    | Fourier.Feasible _, Fourier.Feasible _ -> true
    | Fourier.Unknown, Fourier.Unknown -> true
    | Fourier.Exhausted x, Fourier.Exhausted y -> x = y
    | _ -> false
  in
  Alcotest.(check bool) "exact step cap reproduces the verdict" true
    (same_verdict r0 (run steps));
  Alcotest.(check bool) "one step fewer exhausts with Steps" true
    (match run (steps - 1) with
     | Fourier.Exhausted Budget.Steps -> true
     | _ -> false)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 100_000 do
    Budget.tick b;
    Budget.check_rows b 1_000_000;
    Budget.check_coeff b (Zint.pow (z 2) 200)
  done

(* ------------------------------------------------------------------ *)
(* Failpoint                                                           *)
(* ------------------------------------------------------------------ *)

let with_failpoints spec f =
  Failpoint.set spec;
  Fun.protect ~finally:Failpoint.clear f

let test_failpoint_spec_errors () =
  (match Failpoint.configure "nonsense.site=raise" with
   | Ok () -> Alcotest.fail "unknown site accepted"
   | Error _ -> ());
  (match Failpoint.configure "fourier.solve=frobnicate" with
   | Ok () -> Alcotest.fail "unknown action accepted"
   | Error _ -> ());
  (match Failpoint.configure "fourier.solve=raise@x" with
   | Ok () -> Alcotest.fail "bad window accepted"
   | Error _ -> ());
  match Failpoint.configure "" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty spec rejected: %s" e

let test_failpoint_windows () =
  with_failpoints "fourier.solve=raise@2" (fun () ->
      Failpoint.hit "fourier.solve" (* hit 1: pass *);
      Alcotest.check_raises "2nd hit fires"
        (Failpoint.Injected "fourier.solve") (fun () ->
          Failpoint.hit "fourier.solve");
      Failpoint.hit "fourier.solve" (* hit 3: pass again *);
      Alcotest.(check int) "hits counted" 3 (Failpoint.hits "fourier.solve"));
  (* Cleared: the same site is inert again. *)
  Failpoint.hit "fourier.solve"

let test_failpoint_exhaust_action () =
  with_failpoints "memo.find_or_add=exhaust" (fun () ->
      Alcotest.check_raises "exhaust action spends the budget"
        (Budget.Exhausted Budget.Injected) (fun () ->
          Failpoint.hit "memo.find_or_add"))

(* ------------------------------------------------------------------ *)
(* Degraded verdicts are sound over-approximations                     *)
(* ------------------------------------------------------------------ *)

let tiny_limits = { Budget.default_limits with max_steps = Some 25 }

let prop_budget_over_approximates =
  (* Under any budget, an Independent answer still carries a real
     certificate (the checker is exercised elsewhere); here: whenever
     the tiny-budget cascade decides Independent, brute force agrees,
     and exhaustion is the only other non-exact outcome — never a
     crash. *)
  QCheck.Test.make
    ~name:"tiny-budget cascade verdicts over-approximate brute force"
    ~count:500 Gen_sys.arb_boxed
    (fun boxed ->
       let truth = Gen_sys.brute_feasible boxed in
       let budget = Budget.create tiny_limits in
       match (Cascade.run ~budget boxed.Gen_sys.sys).Cascade.verdict with
       | Cascade.Independent _ -> not truth
       | Cascade.Dependent w ->
         truth && Consys.satisfies_all w boxed.Gen_sys.sys
       | Cascade.Unknown | Cascade.Exhausted _ -> true)

let parse = Dda_lang.Parser.parse_program

let analyze_tiny prog =
  let config = { Analyzer.default_config with limits = tiny_limits } in
  Analyzer.analyze ~config prog

let prop_degraded_flagged =
  (* Whole-program robustness: with a tiny step budget the analyzer
     never raises, every degraded pair is reported dependent-inexact,
     and the stats count matches the flags. *)
  QCheck.Test.make
    ~name:"tiny-budget analysis degrades to flagged conservative verdicts"
    ~count:60 Gen_ast.arb_affine_nest
    (fun prog ->
       let report = analyze_tiny prog in
       let flagged =
         List.filter
           (fun (r : Analyzer.pair_report) ->
              match r.Analyzer.outcome with
              | Analyzer.Tested { degraded; _ } -> degraded <> None
              | _ -> false)
           report.Analyzer.pair_reports
       in
       List.for_all
         (fun (r : Analyzer.pair_report) ->
            match r.Analyzer.outcome with
            | Analyzer.Tested { dependent; unknown; _ } ->
              dependent && unknown
            | _ -> false)
         flagged
       && report.Analyzer.stats.Analyzer.degraded_pairs = List.length flagged)

let test_deadline_degrades () =
  (* An already-expired deadline: analysis still terminates with a
     report, conservatively flagged wherever the cascade would have
     run. *)
  let prog =
    parse "for i = 1 to 40 do\n  a[3 * i + 1] = a[5 * i + 2] + 1\nend"
  in
  let report = Analyzer.analyze ~cancel:(fun () -> true) prog in
  List.iter
    (fun (r : Analyzer.pair_report) ->
       match r.Analyzer.outcome with
       | Analyzer.Tested { degraded; dependent; _ } ->
         if degraded = Some Budget.Deadline then
           Alcotest.(check bool) "deadline verdicts stay conservative" true
             dependent
       | _ -> ())
    report.Analyzer.pair_reports

(* ------------------------------------------------------------------ *)
(* Batch fault isolation                                               *)
(* ------------------------------------------------------------------ *)

let corpus () =
  List.map
    (fun (name, src) -> (name, parse src))
    [
      ("one.dd", "for i = 1 to 10 do\n  a[i + 1] = a[i] + 1\nend");
      ("two.dd", "for i = 1 to 10 do\n  b[2 * i] = b[i] + 1\nend");
      ("three.dd", "for i = 1 to 10 do\n  c[i] = c[i + 10] + 1\nend");
    ]

(* Each outcome's name and attempt count, in input order. *)
let attempts outcomes =
  List.map
    (function
      | Stream.Analyzed a -> (a.name, a.attempts)
      | Stream.Quarantined q -> (q.name, q.attempts))
    outcomes

let test_batch_retry_recovers () =
  with_failpoints "batch.item=raise@1" (fun () ->
      let outcomes, summary =
        Stream.run_programs ~retries:1 ~backoff_ms:0 ~jobs:1 (corpus ())
      in
      Alcotest.(check int) "nothing quarantined" 0 summary.Stream.quarantined;
      Alcotest.(check int) "one retry" 1 summary.Stream.retried;
      Alcotest.(check (list (pair string int)))
        "all items analyzed, the first in two attempts, the others in one"
        [ ("one.dd", 2); ("two.dd", 1); ("three.dd", 1) ]
        (attempts outcomes);
      List.iter
        (function
          | Stream.Analyzed _ -> ()
          | Stream.Quarantined q -> Alcotest.failf "%s quarantined" q.name)
        outcomes)

let test_batch_quarantine () =
  (* The first item fails on every attempt; the rest of the corpus
     still completes, in order, with the failure recorded. *)
  with_failpoints "batch.item=raise@1-2" (fun () ->
      let outcomes, summary =
        Stream.run_programs ~retries:1 ~backoff_ms:0 ~jobs:1 (corpus ())
      in
      Alcotest.(check int) "one item quarantined" 1 summary.Stream.quarantined;
      (match outcomes with
       | Stream.Quarantined q :: rest ->
         Alcotest.(check string) "the failing item" "one.dd" q.name;
         Alcotest.(check int) "both attempts used" 2 q.attempts;
         let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec at i =
             i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
           in
           at 0
         in
         Alcotest.(check bool) "error names the failpoint" true
           (contains q.error "batch.item");
         Alcotest.(check (list string)) "survivors in input order"
           [ "two.dd"; "three.dd" ]
           (List.map
              (function
                | Stream.Analyzed a -> a.name
                | Stream.Quarantined q -> "quarantined " ^ q.name)
              rest)
       | _ -> Alcotest.fail "expected the first item quarantined");
      (* Merged stats cover survivors only: pairs from 2 programs. *)
      let _, solo = Stream.run_programs ~jobs:1 (List.tl (corpus ())) in
      Alcotest.(check int) "stats exclude the quarantined item"
        solo.Stream.merged.Analyzer.pairs summary.Stream.merged.Analyzer.pairs)

let test_batch_timeout_degrades () =
  (* A 0ms deadline: items still come back (degraded where the cascade
     ran), nothing is quarantined, the batch terminates. *)
  let outcomes, summary =
    Stream.run_programs ~item_timeout_ms:0 ~jobs:2 (corpus ())
  in
  Alcotest.(check int) "all items analyzed" 3 (List.length outcomes);
  Alcotest.(check int) "nothing quarantined" 0 summary.Stream.quarantined

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "robustness"
    [
      ( "budget",
        [
          Alcotest.test_case "step accounting" `Quick test_budget_steps;
          Alcotest.test_case "row and coefficient caps" `Quick
            test_budget_rows_and_coeff;
          Alcotest.test_case "cooperative cancel" `Quick test_budget_cancel;
          Alcotest.test_case "fast-path step charging" `Quick
            test_budget_fastpath_charging;
          Alcotest.test_case "unlimited never exhausts" `Quick
            test_budget_unlimited;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "spec validation" `Quick test_failpoint_spec_errors;
          Alcotest.test_case "hit windows" `Quick test_failpoint_windows;
          Alcotest.test_case "exhaust action" `Quick
            test_failpoint_exhaust_action;
        ] );
      ( "degraded",
        [
          qt prop_budget_over_approximates;
          qt prop_degraded_flagged;
          Alcotest.test_case "expired deadline degrades" `Quick
            test_deadline_degrades;
        ] );
      ( "batch",
        [
          Alcotest.test_case "retry recovers" `Quick test_batch_retry_recovers;
          Alcotest.test_case "quarantine isolates" `Quick test_batch_quarantine;
          Alcotest.test_case "timeout degrades, not kills" `Quick
            test_batch_timeout_degrades;
        ] );
    ]
