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
  Alcotest.(check (option string)) "find" (Some "a")
    (Sharded_table.find t [| 1; 2 |]);
  Sharded_table.add t [| 1; 2 |] "b";
  Alcotest.(check (option string)) "add replaces" (Some "b")
    (Sharded_table.find t [| 1; 2 |]);
  Alcotest.(check int) "replace keeps one binding" 1 (Sharded_table.length t);
  Alcotest.check_raises "raising compute stores nothing" (Failure "boom")
    (fun () -> ignore (Sharded_table.find_or_add t [| 7 |] (fun () -> failwith "boom")));
  Alcotest.(check (option string)) "nothing cached after raise" None
    (Sharded_table.find t [| 7 |])

let test_sharded_stats_aggregate () =
  let t = Sharded_table.create ~stripes:4 () in
  for i = 0 to 199 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> i))
  done;
  for i = 0 to 99 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> -1))
  done;
  let st = Sharded_table.stats t in
  Alcotest.(check int) "size sums stripes" 200 st.Memo_table.size;
  Alcotest.(check int) "size agrees with length" (Sharded_table.length t)
    st.Memo_table.size;
  Alcotest.(check int) "lookups" 300 st.Memo_table.lookups;
  Alcotest.(check int) "hits" 100 st.Memo_table.hits;
  let seen = ref 0 in
  Sharded_table.iter (fun k v -> if k.(0) = v then incr seen) t;
  Alcotest.(check int) "iter visits every binding" 200 !seen;
  Sharded_table.reset_counters t;
  let st = Sharded_table.stats t in
  Alcotest.(check (pair int int)) "counters reset, bindings kept" (0, 0)
    (st.Memo_table.lookups, st.Memo_table.hits);
  Alcotest.(check int) "bindings kept" 200 (Sharded_table.length t)

let test_sharded_across_domains () =
  (* Four domains hammer one table over an overlapping key space. Every
     lookup must come back with the value the key's compute produces
     (computes are deterministic functions of the key), the final size
     must be the distinct-key count, and the lookup total must be
     jobs-invariant: one count per find_or_add whatever the timing. *)
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
    (Sharded_table.length t);
  let st = Sharded_table.stats t in
  Alcotest.(check int) "lookup total is jobs-invariant" (4 * 50 * 25)
    st.Memo_table.lookups;
  (* Hits can lag lookups by at most the racy duplicate computes; they
     can never exceed lookups - distinct keys. *)
  Alcotest.(check bool) "hits bounded" true
    (st.Memo_table.hits <= st.Memo_table.lookups - Sharded_table.length t);
  Alcotest.(check bool) "contention counter is sane" true
    (Sharded_table.contended t >= 0)

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

let test_chunks () =
  Alcotest.(check (list (pair int int))) "even split" [ (0, 2); (2, 4) ]
    (Batch.chunks ~jobs:2 4);
  Alcotest.(check (list (pair int int))) "uneven split" [ (0, 2); (2, 4); (4, 7) ]
    (Batch.chunks ~jobs:3 7);
  Alcotest.(check (list (pair int int))) "more jobs than items"
    [ (0, 0); (0, 1); (1, 1); (1, 2) ]
    (Batch.chunks ~jobs:4 2);
  Alcotest.(check (list (pair int int))) "empty corpus" [ (0, 0) ]
    (Batch.chunks ~jobs:1 0)

let corpus_of_programs programs =
  List.mapi
    (fun i prog -> { Batch.name = Printf.sprintf "p%d" i; program = prog })
    programs

(* Render everything a batch run reports — per-item verdicts, direction
   vectors, distances and merged statistics — to one canonical string. *)
let fingerprint (r : Batch.result) =
  String.concat "\n"
    (List.map
       (fun (a : Batch.analyzed) ->
          a.Batch.name ^ " " ^ Json_out.to_string (Json_out.report a.Batch.report))
       r.Batch.items)
  ^ "\n" ^ Json_out.to_string (Json_out.stats r.Batch.merged)

let test_batch_empty_and_small () =
  let r = Batch.run ~jobs:4 [] in
  Alcotest.(check int) "empty corpus" 0 (List.length r.Batch.items);
  Alcotest.(check int) "no pairs" 0 r.Batch.merged.Analyzer.pairs;
  let one = corpus_of_programs [ parse "for i = 1 to 9 do\n  a[i + 1] = a[i] + 1\nend" ] in
  let r = Batch.run ~jobs:8 one in
  Alcotest.(check int) "one item, more jobs than items" 1 (List.length r.Batch.items);
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Batch.run: jobs must be >= 1") (fun () ->
      ignore (Batch.run ~jobs:0 one))

let arb_corpus =
  QCheck.make
    ~print:(fun progs ->
      String.concat "\n---\n" (List.map Dda_lang.Pretty.program_to_string progs))
    QCheck.Gen.(list_size (int_range 2 5) (QCheck.gen Test_support.Gen_ast.arb_affine_nest))

let prop_batch_deterministic =
  (* The issue's headline property: on random corpora of affine nests,
     batch output (verdicts, direction vectors, merged stats) is
     identical for jobs in {1, 2, 4} and byte-identical to the
     sequential path. *)
  QCheck.Test.make ~name:"batch output invariant under the job count" ~count:20
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let sequential =
         (* The sequential path, no pool involved. *)
         let items =
           List.mapi
             (fun i (it : Batch.item) ->
                {
                  Batch.index = i;
                  name = it.Batch.name;
                  report = Analyzer.analyze it.Batch.program;
                  verification = None;
                  lint = None;
                  attempts = 1;
                })
             corpus
         in
         let merged = Analyzer.fresh_stats () in
         List.iter
           (fun (a : Batch.analyzed) ->
              Analyzer.merge_stats ~into:merged a.Batch.report.Analyzer.stats)
           items;
         fingerprint
           {
             Batch.items;
             quarantined = [];
             retried = 0;
             merged;
             table_stats = None;
             contended = None;
           }
       in
       List.for_all
         (fun jobs -> fingerprint (Batch.run ~jobs corpus) = sequential)
         [ 1; 2; 4 ])

let prop_batch_share_memo_verdicts =
  (* Shared-session mode may change memo counters but never verdicts,
     direction vectors or distances. *)
  QCheck.Test.make ~name:"shared-memo batch preserves all verdicts" ~count:15
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let pairs_only (r : Batch.result) =
         List.map
           (fun (a : Batch.analyzed) ->
              List.map Json_out.pair a.Batch.report.Analyzer.pair_reports)
           r.Batch.items
       in
       let isolated = pairs_only (Batch.run ~jobs:1 corpus) in
       List.for_all
         (fun jobs ->
            pairs_only (Batch.run ~share_memo:true ~jobs corpus) = isolated)
         [ 1; 3 ])

let test_batch_share_memo_unique_counts () =
  (* Two copies of the same program: whatever the chunking, the union
     of the per-domain tables holds each distinct problem once, and the
     merged unique counts must not double-count. *)
  let prog = parse "for i = 1 to 10 do\n  a[i + 2] = a[i] + 1\nend" in
  let corpus = corpus_of_programs [ prog; prog ] in
  let solo = Batch.run ~share_memo:true ~jobs:1 (corpus_of_programs [ prog ]) in
  let r1 = Batch.run ~share_memo:true ~jobs:1 corpus in
  let r2 = Batch.run ~share_memo:true ~jobs:2 corpus in
  Alcotest.(check int) "jobs=1: second copy adds no unique problems"
    solo.Batch.merged.Analyzer.memo_unique_full
    r1.Batch.merged.Analyzer.memo_unique_full;
  Alcotest.(check int) "jobs=2: union across domains deduplicates"
    solo.Batch.merged.Analyzer.memo_unique_full
    r2.Batch.merged.Analyzer.memo_unique_full

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
          Alcotest.test_case "stats aggregate stripes" `Quick
            test_sharded_stats_aggregate;
          Alcotest.test_case "shared across four domains" `Quick
            test_sharded_across_domains;
        ] );
      ( "batch",
        [
          Alcotest.test_case "chunks" `Quick test_chunks;
          Alcotest.test_case "empty and small corpora" `Quick
            test_batch_empty_and_small;
          Alcotest.test_case "shared-memo unique counts" `Quick
            test_batch_share_memo_unique_counts;
          qt prop_batch_deterministic;
          qt prop_batch_share_memo_verdicts;
        ] );
    ]
