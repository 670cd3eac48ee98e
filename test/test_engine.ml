(* The parallel batch engine: the domain pool's scheduling and failure
   behavior, the memo/stats merge APIs, the paper's hash function, and
   the batch driver's determinism guarantee — analyzing a corpus on N
   domains is byte-identical to the sequential path for every N. *)

open Dda_core
open Dda_engine

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_basic () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  Alcotest.(check int) "run" 42 (Pool.run pool (fun () -> 6 * 7));
  Pool.shutdown pool

let test_pool_many_tasks () =
  (* Hundreds of tiny tasks all complete, and [map] restores input
     order whatever order the workers finished in. *)
  let pool = Pool.create ~jobs:4 in
  let inputs = List.init 500 Fun.id in
  let results = Pool.map pool (fun i -> i * i) inputs in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun i -> i * i) inputs)
    results

let test_pool_exception_propagates () =
  let pool = Pool.create ~jobs:2 in
  let boom = Pool.submit pool (fun () -> failwith "boom") in
  let fine = Pool.submit pool (fun () -> 1) in
  Alcotest.check_raises "task exception reaches the caller" (Failure "boom")
    (fun () -> ignore (Pool.await boom));
  Alcotest.(check int) "other task unaffected" 1 (Pool.await fine);
  (* The worker that ran the failing task survives: the pool still
     drains new work. *)
  Alcotest.(check (list int)) "pool usable after a failure" [ 0; 2; 4 ]
    (Pool.map pool (fun i -> 2 * i) [ 0; 1; 2 ]);
  Pool.shutdown pool

let test_pool_jobs1_sequential () =
  (* A single worker pops a FIFO queue: tasks run in submission order. *)
  let pool = Pool.create ~jobs:1 in
  let log = ref [] in
  let promises =
    List.init 100 (fun i ->
        Pool.submit pool (fun () ->
            log := i :: !log;
            i))
  in
  let results = List.map Pool.await promises in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "results" (List.init 100 Fun.id) results;
  Alcotest.(check (list int)) "executed in submission order"
    (List.init 100 Fun.id)
    (List.rev !log)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:3 in
  (* Queued tasks finish before the workers are joined. *)
  let promises = List.init 50 (fun i -> Pool.submit pool (fun () -> i + 1)) in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "queued work completed before join"
    (List.init 50 (fun i -> i + 1))
    (List.map Pool.await promises);
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: the pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())));
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_pool_stress_mixed_failures () =
  (* A pool bombarded with interleaved failing and succeeding tasks
     keeps every promise straight. *)
  let pool = Pool.create ~jobs:4 in
  let promises =
    List.init 300 (fun i ->
        (i, Pool.submit pool (fun () -> if i mod 7 = 0 then failwith "die" else i)))
  in
  List.iter
    (fun (i, p) ->
       if i mod 7 = 0 then
         Alcotest.check_raises (Printf.sprintf "task %d fails" i) (Failure "die")
           (fun () -> ignore (Pool.await p))
       else Alcotest.(check int) (Printf.sprintf "task %d" i) i (Pool.await p))
    promises;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Statistics merge and the paper's hash                               *)
(* ------------------------------------------------------------------ *)

let prop_hash_formula =
  (* hash_key agrees with the paper's h(x) = size(x) + sum 2^i x_i on
     every key, including permuted variants of the same multiset (the
     formula is position-dependent by design, so a permutation hashes
     through the same formula, not to the same value). *)
  let formula key =
    (* Independent rendering of h(x) = size(x) + sum 2^i x_i, with the
       same native wrapping arithmetic the table uses (2^i wraps to 0
       past the word size, so long keys stay deterministic too). *)
    let h, _ =
      List.fold_left
        (fun (h, p) x -> (h + (p * x), p * 2))
        (List.length key, 1)
        key
    in
    h land max_int
  in
  QCheck.Test.make ~name:"hash_key matches the paper's formula" ~count:500
    QCheck.(pair (list (int_range (-8) 8)) (list small_int))
    (fun (key, shuffle_seed) ->
       (* A cheap deterministic permutation driven by the second list. *)
       let permuted =
         List.map snd
           (List.sort compare
              (List.mapi
                 (fun i x ->
                    ((List.nth_opt shuffle_seed (i mod max 1 (List.length shuffle_seed))
                      |> Option.value ~default:0)
                     + i * 7919 mod 101, x))
                 key))
       in
       Memo_table.hash_key (Array.of_list key) = formula key
       && Memo_table.hash_key (Array.of_list permuted) = formula permuted)

(* ------------------------------------------------------------------ *)
(* Sharded_table                                                       *)
(* ------------------------------------------------------------------ *)

let test_sharded_basic () =
  let t = Sharded_table.create ~stripes:5 () in
  Alcotest.(check int) "stripes rounded up to a power of two" 8
    (Sharded_table.stripes t);
  let v, hit = Sharded_table.find_or_add t [| 1; 2 |] (fun () -> "a") in
  Alcotest.(check (pair string bool)) "miss computes" ("a", false) (v, hit);
  let v, hit = Sharded_table.find_or_add t [| 1; 2 |] (fun () -> "BUG") in
  Alcotest.(check (pair string bool)) "hit returns stored" ("a", true) (v, hit);
  Alcotest.(check (option string)) "probe" (Some "a")
    (Sharded_table.probe t [| 1; 2 |]);
  Sharded_table.add t [| 1; 2 |] "b";
  Alcotest.(check (option string)) "add replaces" (Some "b")
    (Sharded_table.probe t [| 1; 2 |]);
  Alcotest.(check int) "replace keeps one binding" 1 (Sharded_table.length t);
  Alcotest.check_raises "raising compute stores nothing" (Failure "boom")
    (fun () -> ignore (Sharded_table.find_or_add t [| 7 |] (fun () -> failwith "boom")));
  Alcotest.(check (option string)) "nothing cached after raise" None
    (Sharded_table.probe t [| 7 |])

let test_sharded_spans_stripes () =
  let t = Sharded_table.create ~stripes:4 () in
  for i = 0 to 199 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> i))
  done;
  for i = 0 to 99 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> -1))
  done;
  Alcotest.(check int) "length sums stripes" 200 (Sharded_table.length t);
  let seen = ref 0 in
  Sharded_table.iter (fun k v -> if k.(0) = v then incr seen) t;
  Alcotest.(check int) "iter visits every binding" 200 !seen

let test_sharded_across_domains () =
  (* Four domains hammer one table over an overlapping key space. Every
     lookup must come back with the value the key's compute produces
     (computes are deterministic functions of the key), and the final
     size must be the distinct-key count. *)
  let t = Sharded_table.create ~stripes:8 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 0 to 49 do
              for k = 0 to 24 do
                let key = [| k; k * k; (d + round) mod 3 |] in
                let expect = key.(0) + key.(1) + key.(2) in
                let v, _ = Sharded_table.find_or_add t key (fun () -> expect) in
                if v <> expect then ok := false
              done
            done;
            !ok))
  in
  let oks = List.map Domain.join domains in
  Alcotest.(check (list bool)) "every domain saw consistent values"
    [ true; true; true; true ] oks;
  Alcotest.(check int) "distinct keys stored once" (25 * 3)
    (Sharded_table.length t)

let test_sharded_probe_failpoint_unlocked () =
  let t = Sharded_table.create ~stripes:1 () in
  ignore (Sharded_table.find_or_add t [| 3; 4 |] (fun () -> "v"));
  (* The [kill] action calls the kill handler at the failpoint: from
     there, take the table's one stripe again on the same domain. A
     stripe lock still held would refuse it (OCaml mutexes are
     error-checking), so the failpoint must run with no lock held, as
     in [find_or_add]. *)
  let inside = ref None in
  Failpoint.set_kill_handler (fun () -> inside := Some (Sharded_table.length t));
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      Failpoint.set_kill_handler (fun () -> Stdlib.exit 137))
    (fun () ->
      Failpoint.set "memo.find_or_add=kill@1";
      Alcotest.(check (option string)) "a probe miss is None" None
        (Sharded_table.probe t [| 9 |]);
      Alcotest.(check int) "a probe miss passes no failpoint" 0
        (Failpoint.hits "memo.find_or_add");
      Alcotest.(check (option string)) "a probe hit is the stored value" (Some "v")
        (Sharded_table.probe t [| 3; 4 |]);
      Alcotest.(check (option int)) "its failpoint ran unlocked" (Some 1) !inside;
      Alcotest.(check int) "a probe hit passes the failpoint once" 1
        (Failpoint.hits "memo.find_or_add"))

(* ------------------------------------------------------------------ *)
(* Stats merge                                                         *)
(* ------------------------------------------------------------------ *)

let parse = Dda_lang.Parser.parse_program

let test_merge_stats () =
  let p1 = parse "for i = 1 to 10 do\n  a[i + 1] = a[i] + 1\nend" in
  let p2 = parse "for i = 1 to 8 do\n  b[2 * i] = b[i] + 1\nend" in
  let r1 = Analyzer.analyze p1 and r2 = Analyzer.analyze p2 in
  let merged = Analyzer.fresh_stats () in
  Analyzer.merge_stats ~into:merged r1.Analyzer.stats;
  Analyzer.merge_stats ~into:merged r2.Analyzer.stats;
  let s1 = r1.Analyzer.stats and s2 = r2.Analyzer.stats in
  Alcotest.(check int) "pairs" (s1.Analyzer.pairs + s2.Analyzer.pairs)
    merged.Analyzer.pairs;
  Alcotest.(check int) "dependent"
    (s1.Analyzer.dependent_pairs + s2.Analyzer.dependent_pairs)
    merged.Analyzer.dependent_pairs;
  Alcotest.(check int) "independent"
    (s1.Analyzer.independent_pairs + s2.Analyzer.independent_pairs)
    merged.Analyzer.independent_pairs;
  Alcotest.(check int) "memo lookups"
    (s1.Analyzer.memo_lookups_full + s2.Analyzer.memo_lookups_full)
    merged.Analyzer.memo_lookups_full;
  Alcotest.(check int) "dir counts svpc"
    (s1.Analyzer.dir_counts.Direction.by_test.(0)
     + s2.Analyzer.dir_counts.Direction.by_test.(0))
    merged.Analyzer.dir_counts.Direction.by_test.(0)

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

let corpus_of_programs programs =
  List.mapi (fun i prog -> (Printf.sprintf "p%d" i, prog)) programs

(* Render everything a batch run reports — per-item verdicts, direction
   vectors, distances and merged statistics — to one canonical string. *)
let fingerprint (outcomes, (summary : Stream.summary)) =
  String.concat "\n"
    (List.map
       (function
         | Stream.Analyzed a ->
           a.name ^ " " ^ Json_out.to_string (Json_out.report a.report)
         | Stream.Quarantined q -> q.name ^ " quarantined: " ^ q.error)
       outcomes)
  ^ "\n" ^ Json_out.to_string (Json_out.stats summary.merged)

let analyzed_count (outcomes, _) =
  List.length
    (List.filter
       (function Stream.Analyzed _ -> true | Stream.Quarantined _ -> false)
       outcomes)

let test_batch_empty_and_small () =
  let outcomes, summary = Stream.run_programs ~jobs:4 [] in
  Alcotest.(check int) "empty corpus" 0 (List.length outcomes);
  Alcotest.(check int) "no pairs" 0 summary.Stream.merged.Analyzer.pairs;
  let one = corpus_of_programs [ parse "for i = 1 to 9 do\n  a[i + 1] = a[i] + 1\nend" ] in
  let r = Stream.run_programs ~jobs:8 one in
  Alcotest.(check int) "one item, more jobs than items" 1 (analyzed_count r);
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Stream.run: jobs must be >= 1") (fun () ->
      ignore (Stream.run_programs ~jobs:0 one))

let arb_corpus =
  QCheck.make
    ~print:(fun progs ->
      String.concat "\n---\n" (List.map Dda_lang.Pretty.program_to_string progs))
    QCheck.Gen.(list_size (int_range 2 5) (QCheck.gen Test_support.Gen_ast.arb_affine_nest))

(* A loop whose lint summary depends on the optimizer prepass: in the
   source the counter [k] is carried from one iteration to the next;
   the prepass rewrites it to the loop variable, leaving a DOALL. *)
let induction_loop =
  parse "k = 0\nfor i = 1 to 10 do\n  k = k + 1\n  a[k] = a[k] + 1\nend"

let prop_batch_deterministic =
  (* The headline property: on random corpora of affine nests,
     batch output (verdicts, direction vectors, merged stats) is
     identical for jobs in {1, 2, 4} and byte-identical to the
     sequential path. Each item's verification and lint summary, which
     the driver derives from the item's one front end, must equal what
     the stand-alone [Verify.run] and [Lint.run] derive on their own. *)
  QCheck.Test.make ~name:"batch output invariant under the job count" ~count:20
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs (programs @ [ induction_loop ]) in
       let sequential =
         (* The sequential path, no pool involved. *)
         let reports =
           List.map (fun (_, program) -> Analyzer.analyze program) corpus
         in
         let merged = Analyzer.fresh_stats () in
         List.iter
           (fun (r : Analyzer.report) ->
              Analyzer.merge_stats ~into:merged r.Analyzer.stats)
           reports;
         String.concat "\n"
           (List.map2
              (fun (name, _) report ->
                 name ^ " " ^ Json_out.to_string (Json_out.report report))
              corpus reports)
         ^ "\n" ^ Json_out.to_string (Json_out.stats merged)
       in
       let oracles =
         List.map
           (fun (name, program) ->
              ( Json_out.to_string
                  (Dda_check.Verify.to_json ~file:name
                     (Dda_check.Verify.run program)),
                Json_out.to_string
                  (Dda_analysis.Lint.to_json ~file:name
                     (Dda_analysis.Lint.run program)) ))
           corpus
       in
       let checked (outcomes, _) =
         List.map
           (function
             | Stream.Analyzed
                 { name; verification = Some v; lint = Some l; _ } ->
               ( Json_out.to_string (Dda_check.Verify.to_json ~file:name v),
                 Json_out.to_string (Dda_analysis.Lint.to_json ~file:name l) )
             | Stream.Analyzed { name; _ } -> (name, "no verification or lint")
             | Stream.Quarantined q -> (q.name, q.error))
           outcomes
       in
       List.for_all
         (fun jobs ->
            let r = Stream.run_programs ~verify:true ~lint:true ~jobs corpus in
            fingerprint (Stream.run_programs ~jobs corpus) = sequential
            && fingerprint r = sequential
            && checked r = oracles)
         [ 1; 2; 4 ])

let prop_batch_share_memo_verdicts =
  (* Shared-session mode may change memo counters but never verdicts,
     direction vectors or distances. *)
  QCheck.Test.make ~name:"shared-memo batch preserves all verdicts" ~count:15
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let pairs_only (outcomes, _) =
         List.map
           (function
             | Stream.Analyzed a ->
               List.map Json_out.pair a.report.Analyzer.pair_reports
             | Stream.Quarantined _ -> [])
           outcomes
       in
       let isolated = pairs_only (Stream.run_programs ~jobs:1 corpus) in
       List.for_all
         (fun jobs ->
            pairs_only (Stream.run_programs ~share_memo:true ~jobs corpus)
            = isolated)
         [ 1; 3 ])

let test_batch_share_memo_unique_counts () =
  (* Copies of the same programs: whichever domain analyzes which
     copy, the shared tables hold each distinct problem once, so the
     merged unique counts are the corpus's distinct problems — what
     one cache fed every program in turn ends up holding — at any
     [jobs], parsed in process or streamed from text. *)
  let texts =
    [ "for i = 1 to 10 do\n  a[i + 2] = a[i] + 1\nend";
      "for i = 1 to 10 do\n  a[i + 2] = a[i] + 1\n  b[i] = b[i + 1]\nend" ]
  in
  let texts = texts @ texts @ texts in
  let distinct =
    let cache = Analyzer.memory_cache () in
    List.iter (fun t -> ignore (Analyzer.analyze ~cache (parse t))) texts;
    cache.Analyzer.cache_sizes ()
  in
  let unique (s : Stream.summary) =
    (s.merged.Analyzer.memo_unique_nobounds, s.merged.Analyzer.memo_unique_full)
  in
  let streamed jobs =
    let rest = ref (List.mapi (fun i t -> (Printf.sprintf "p%d" i, t)) texts) in
    Stream.run ~share_memo:true ~jobs ~render:(fun _ -> "") ~emit:ignore
      (fun () ->
        match !rest with
        | [] -> None
        | (name, t) :: tl ->
          rest := tl;
          Some { Stream.name; text = (fun () -> t) })
  in
  let corpus = corpus_of_programs (List.map parse texts) in
  List.iter
    (fun jobs ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "run_programs, jobs=%d: distinct problems" jobs)
        distinct
        (unique (snd (Stream.run_programs ~share_memo:true ~jobs corpus)));
      Alcotest.(check (pair int int))
        (Printf.sprintf "run over text, jobs=%d: distinct problems" jobs)
        distinct (unique (streamed jobs)))
    [ 1; 2 ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "basic" `Quick test_pool_basic;
          Alcotest.test_case "many tasks, input order" `Quick test_pool_many_tasks;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "jobs=1 is in-order sequential" `Quick
            test_pool_jobs1_sequential;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "stress with mixed failures" `Quick
            test_pool_stress_mixed_failures;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge_stats sums fields" `Quick test_merge_stats;
          qt prop_hash_formula;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "basic protocol" `Quick test_sharded_basic;
          Alcotest.test_case "length and iter span stripes" `Quick
            test_sharded_spans_stripes;
          Alcotest.test_case "shared across four domains" `Quick
            test_sharded_across_domains;
          Alcotest.test_case "probe passes its failpoint unlocked" `Quick
            test_sharded_probe_failpoint_unlocked;
        ] );
      ( "batch",
        [
          Alcotest.test_case "empty and small corpora" `Quick
            test_batch_empty_and_small;
          Alcotest.test_case "shared-memo unique counts" `Quick
            test_batch_share_memo_unique_counts;
          qt prop_batch_deterministic;
          qt prop_batch_share_memo_verdicts;
        ] );
    ]
