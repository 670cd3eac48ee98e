(* The memo probe: before it builds a pair's problem, the analyzer
   probes the full memo table with a key written straight from the two
   sites ([Build_problem.key]). These properties pin what makes a hit
   exact: the direct key is the built problem's key, canonicalization
   is idempotent (so a problem whose key is stored would not shrink),
   and a warm cache answers byte for byte as the build path does. The
   witness replay's key ([Build_problem.replay_key]) is pinned beside
   the direct key: the built problem as written.

   Programs: generated nests (affine and symbolic), [Fuzz] programs of
   both profiles, and the PERFECT suite, each with symbolic analysis on
   and off. The build path is the same cache with [probe_full] always
   missing: the analyzer then builds and canonicalizes every pair, and
   keys it again where canonicalization changed it.

   On a miss, the lookup reuses the probe's key when the canonical
   problem is the one built; a cache that marks each missed probe key
   checks that no key is written in between. *)

open Dda_numeric
open Dda_lang
open Dda_core

let symbolic_configs =
  List.map
    (fun symbolic -> { Analyzer.default_config with Analyzer.symbolic })
    [ true; false ]

let fronts prog = List.map (fun config -> (config, Analyzer.front_end config prog)) symbolic_configs

let arb_program =
  let fuzz =
    QCheck.Gen.(
      map2
        (fun profile index ->
           Parser.parse_program (Dda_perfect.Fuzz.program profile ~seed:17 ~index))
        (oneofl Dda_perfect.Fuzz.all_profiles)
        (int_bound 100_000))
  in
  QCheck.make ~print:Pretty.program_to_string
    (QCheck.Gen.oneof
       [ Test_support.Gen_ast.gen_affine_nest; Test_support.Gen_ast.gen_symbolic_nest; fuzz ])

let perfect () =
  List.map
    (fun (spec : Dda_perfect.Programs.spec) ->
       (spec.name, Parser.parse_program (Dda_perfect.Programs.source spec)))
    Dda_perfect.Programs.all

let tag_of (s1 : Affine.site) (s2 : Affine.site) =
  if Loc.equal s1.site_loc s2.site_loc then 1 else 0

let key_string k = String.concat " " (Array.to_list (Array.map string_of_int k))

(* ------------------------------------------------------------------ *)
(* The direct key                                                      *)
(* ------------------------------------------------------------------ *)

let small_expr e =
  let ok = ref (Zint.is_small (Symexpr.const_part e)) in
  Symexpr.iter (fun _ c -> if not (Zint.is_small c) then ok := false) e;
  !ok

let small_site (s : Affine.site) =
  let opt = function Some e -> small_expr e | None -> true in
  List.for_all opt s.subscripts
  && List.for_all (fun (c : Affine.loop_ctx) -> opt c.lb && opt c.ub) s.loops

(* Under both tags: no key where [build] gives none; where it builds,
   [to_key] of the built problem, unless a site holds a value past the
   small range. *)
let key_agrees (s1, s2) =
  List.for_all
    (fun tag ->
       let direct = Array.copy (Build_problem.key ~tag s1 s2) in
       match Build_problem.build s1 s2 with
       | None ->
         direct = [||] || QCheck.Test.fail_reportf "a direct key where build gives none"
       | Some p ->
         if direct = [||] then
           (not (small_site s1 && small_site s2))
           || QCheck.Test.fail_reportf "no direct key for a pair of small sites"
         else
           let built = Problem.to_key ~tag p in
           direct = built
           || QCheck.Test.fail_reportf "direct key\n  %s\nbuilt key\n  %s" (key_string direct)
                (key_string built))
    [ 0; 1 ]

let keys_agree prog =
  List.for_all (fun (_, (f : Analyzer.front)) -> List.for_all key_agrees f.pairs) (fronts prog)

let prop_direct_key =
  QCheck.Test.make ~name:"the direct key is the built problem's key" ~count:300 arb_program
    keys_agree

(* 2^62: past the small range whatever a subscript's constant adds. *)
let big = Zint.of_string "4611686018427387904"

let prop_no_key_past_small =
  QCheck.Test.make ~name:"no direct key once a subscript leaves the small range" ~count:100
    arb_program (fun prog ->
        List.for_all
          (fun (_, (f : Analyzer.front)) ->
             List.for_all
               (fun ((s1 : Affine.site), s2) ->
                  let bump = function
                    | Some e :: rest -> Some (Symexpr.add e (Symexpr.const big)) :: rest
                    | subs -> subs
                  in
                  let s1 = { s1 with subscripts = bump s1.subscripts } in
                  Build_problem.build s1 s2 = None
                  || Build_problem.key ~tag:(tag_of s1 s2) s1 s2 = [||]
                  || QCheck.Test.fail_reportf "a direct key with a subscript constant past 2^62")
               f.pairs)
          (fronts prog))

let test_perfect_keys () =
  List.iter
    (fun (name, prog) ->
       if not (keys_agree prog) then Alcotest.failf "%s: a direct key differs" name)
    (perfect ())

(* The witness replay's key: where [build] builds, the built problem's
   header, its equality rows as written (signs kept), the bounds count,
   then each bound's subject and row; empty exactly where the direct
   key is. *)
let written (p : Problem.t) =
  let row (r : Consys.row) =
    Array.to_list (Array.map Zint.to_int_exn r.coeffs) @ [ Zint.to_int_exn r.rhs ]
  in
  Array.of_list
    ([ Problem.nvars p; p.n1; p.n2; p.nsym; p.ncommon; List.length p.eqs ]
     @ List.concat_map row p.eqs
     @ [ List.length p.ineqs ]
     @ List.concat_map (fun (b : Problem.bound) -> b.subject :: row b.row) p.ineqs)

let replay_key_agrees (s1, s2) =
  let replay = Array.copy (Build_problem.replay_key s1 s2) in
  let no_direct = Build_problem.key ~tag:0 s1 s2 = [||] in
  if replay = [||] || no_direct then
    (replay = [||] && no_direct)
    || QCheck.Test.fail_reportf "a replay key and a direct key disagree on existing"
  else
    match Build_problem.build s1 s2 with
    | None -> QCheck.Test.fail_reportf "a replay key where build gives none"
    | Some p ->
      let want = written p in
      replay = want
      || QCheck.Test.fail_reportf "replay key\n  %s\nbuilt problem\n  %s" (key_string replay)
           (key_string want)

let replay_keys_agree prog =
  List.for_all
    (fun (_, (f : Analyzer.front)) -> List.for_all replay_key_agrees f.pairs)
    (fronts prog)

let prop_replay_key =
  QCheck.Test.make ~name:"the replay key is the built problem as written" ~count:300
    arb_program replay_keys_agree

let test_perfect_replay_keys () =
  List.iter
    (fun (name, prog) ->
       if not (replay_keys_agree prog) then Alcotest.failf "%s: a replay key differs" name)
    (perfect ())

(* Symbols are numbered as met: site 1's subscripts, site 2's, then
   site 1's bounds and site 2's. *)
let test_symbol_order () =
  let prog =
    Parser.parse_program
      "read(m)\nread(n)\nread(p)\nread(q)\n\
       for i = 1 to p do for j = 1 to q do a[i + n] = a[j + m] + 1 end end"
  in
  let f = Analyzer.front_end Analyzer.default_config prog in
  let s1, s2 =
    List.find (fun ((s1 : Affine.site), (s2 : Affine.site)) -> s1.role <> s2.role) f.pairs
  in
  let syms (p : Problem.t) =
    Array.to_list (Array.sub p.names (p.n1 + p.n2) p.nsym)
    |> List.map (fun v -> List.hd (String.split_on_char '#' v))
  in
  let first, second = if s1.role = `Write then ("n", "m") else ("m", "n") in
  Alcotest.(check (list string)) "discovery order" [ first; second; "p"; "q" ]
    (syms (Option.get (Build_problem.build s1 s2)));
  Alcotest.(check bool) "the direct key agrees" true (key_agrees (s1, s2))

(* ------------------------------------------------------------------ *)
(* Canonicalization is idempotent                                      *)
(* ------------------------------------------------------------------ *)

let key p = match Problem.to_key p with k -> Some k | exception Problem.Unkeyable -> None

(* Reducing a reduced problem drops nothing, with either
   [keep_common]; and reducing a swapped problem keys as swapping the
   reduced one, so a stored orientation's mirror keys as the pair's
   own mirror would (the symmetric scheme's choice). *)
let reduce_settles (s1, s2) =
  match Build_problem.build s1 s2 with
  | None -> true
  | Some p ->
    List.for_all
      (fun keep_common ->
         let once = Canonical.reduce ~keep_common p in
         let twice = Canonical.reduce ~keep_common once.problem in
         ((not twice.dropped_any) && key twice.problem = key once.problem
          || QCheck.Test.fail_reportf "reduce shrank a reduced problem:\n%s"
               (Format.asprintf "%a" Problem.pp once.problem))
         && (keep_common
             || key (Canonical.reduce (Problem.swap p)).problem
                = key (Problem.swap once.problem)
             || QCheck.Test.fail_reportf "reduce and swap do not commute"))
      [ false; true ]

let reduce_settles_on prog =
  List.for_all (fun (_, (f : Analyzer.front)) -> List.for_all reduce_settles f.pairs) (fronts prog)

let prop_reduce_idempotent =
  QCheck.Test.make ~name:"Canonical.reduce is idempotent" ~count:300 arb_program
    reduce_settles_on

let test_perfect_idempotent () =
  List.iter
    (fun (name, prog) ->
       if not (reduce_settles_on prog) then Alcotest.failf "%s: reduce is not idempotent" name)
    (perfect ())

(* ------------------------------------------------------------------ *)
(* Warm answers                                                        *)
(* ------------------------------------------------------------------ *)

let build_path (c : Analyzer.cache) = { c with Analyzer.probe_full = (fun _ -> None) }

let render r = Json_out.to_string (Json_out.report r)
let render_pairs (r : Analyzer.report) = Json_out.to_string (Json_out.pairs r.pair_reports)

(* Every memo scheme, under an [ample] budget and a one-step one. *)
let memo_configs ~ample base =
  List.concat_map
    (fun memo ->
       List.map
         (fun limits -> { base with Analyzer.memo; limits })
         [ ample; { Budget.default_limits with max_steps = Some 1 } ])
    Analyzer.[ Memo_off; Memo_simple; Memo_improved; Memo_symmetric ]

(* One backend, two caches: [fresh ()] is probed, [build_path (fresh ())]
   is not. A cold then a warm pass over each; the reports, stats
   included, must be byte-identical pass by pass, and the warm pairs
   those of the cold pass. [reopen] warms a cache between passes (a
   durable store is closed and replayed). *)
let passes_agree ~what ~config ~(fresh : unit -> Analyzer.cache * (unit -> Analyzer.cache))
    (f : Analyzer.front) =
  let run c = Analyzer.analyze_sites ~config ~cache:c f.pairs in
  let probed, reopen_probed = fresh () in
  let plain, reopen_plain = fresh () in
  let cold = run probed and cold_ref = run (build_path plain) in
  let probed = reopen_probed () and plain = reopen_plain () in
  let warm = run probed and warm_ref = run (build_path plain) in
  let fail pass a b = QCheck.Test.fail_reportf "%s, %s pass:\n%s\nbuild path:\n%s" what pass a b in
  (render cold = render cold_ref || fail "cold" (render cold) (render cold_ref))
  && (render warm = render warm_ref || fail "warm" (render warm) (render warm_ref))
  && (render_pairs warm = render_pairs cold
      || fail "warm pairs against cold" (render_pairs warm) (render_pairs cold))

let shared_backend () =
  let c = Analyzer.shared_cache (Analyzer.create_shared ()) in
  (c, fun () -> c)

(* Each store's path goes on [opened] for removal, and each warm
   store on [warm], to be read and closed after its pass. *)
let durable_backend ~config ~opened ~warm () =
  let path = Filename.temp_file "probe" ".cache" in
  Sys.remove path;
  opened := path :: !opened;
  let d, _ = Dda_cache.Durable.create ~path ~fsync:false ~config () in
  ( Dda_cache.Durable.cache d,
    fun () ->
      Dda_cache.Durable.close d;
      let d, _ = Dda_cache.Durable.create ~path ~fsync:false ~config () in
      warm := d :: !warm;
      Dda_cache.Durable.cache d )

let warm_answers_agree ~ample (base, (f : Analyzer.front)) =
  List.for_all
    (fun config ->
       let what =
         Printf.sprintf "symbolic %b, %s, max_steps %s" config.Analyzer.symbolic
           (match config.Analyzer.memo with
            | Memo_off -> "off" | Memo_simple -> "simple" | Memo_improved -> "improved"
            | Memo_symmetric -> "symmetric")
           (match config.limits.max_steps with Some n -> string_of_int n | None -> "none")
       in
       let opened = ref [] and warm = ref [] in
       let appends () =
         List.map
           (fun d ->
              let n = Dda_cache.Durable.store_appends d in
              Dda_cache.Durable.close d;
              n)
           !warm
       in
       Fun.protect
         ~finally:(fun () ->
             List.iter (fun p -> if Sys.file_exists p then Sys.remove p) !opened)
         (fun () ->
            passes_agree ~what:("shared, " ^ what) ~config ~fresh:shared_backend f
            && passes_agree ~what:("durable, " ^ what) ~config
                 ~fresh:(durable_backend ~config ~opened ~warm) f
            &&
            (* The probe never appends: both warm stores appended alike. *)
            match appends () with
            | [ a; b ] -> a = b || QCheck.Test.fail_reportf "%s: warm appends %d and %d" what a b
            | _ -> QCheck.Test.fail_reportf "%s: expected two warm stores" what))
    (memo_configs ~ample base)

(* A generated program runs under 20,000 steps a query rather than
   none: without a step cap, some three-deep symbolic nests drive the
   solver's memory past gigabytes, probe or no probe. *)
let prop_warm_answers =
  let ample = { Budget.default_limits with max_steps = Some 20_000 } in
  QCheck.Test.make ~name:"warm answers equal the build path's, stats included" ~count:40
    arb_program (fun prog -> List.for_all (warm_answers_agree ~ample) (fronts prog))

let test_perfect_warm () =
  List.iter
    (fun (name, prog) ->
       if not (List.for_all (warm_answers_agree ~ample:Budget.default_limits) (fronts prog))
       then Alcotest.failf "%s: warm answers differ" name)
    (perfect ())

(* An exhaustion injected at the Nth [memo.find_or_add] of a warm pass
   lands on the same lookup, probed or not: the probe passes the
   failpoint on a hit only, where [find_or_add] would have. *)
let test_failpoint_ordinal () =
  let prog =
    Parser.parse_program (Dda_perfect.Programs.source (List.hd Dda_perfect.Programs.all))
  in
  let config = Analyzer.default_config in
  let f = Analyzer.front_end config prog in
  let warm_run cache_of n =
    let sh = Analyzer.shared_cache (Analyzer.create_shared ()) in
    ignore (Analyzer.analyze_sites ~config ~cache:sh f.pairs);
    Failpoint.set (Printf.sprintf "memo.find_or_add=exhaust@%d" n);
    Fun.protect ~finally:Failpoint.clear (fun () ->
        render (Analyzer.analyze_sites ~config ~cache:(cache_of sh) f.pairs))
  in
  List.iter
    (fun n ->
       Alcotest.(check string)
         (Printf.sprintf "exhaust at hit %d" n)
         (warm_run build_path n) (warm_run Fun.id n))
    [ 1; 7; 40 ]

(* A miss writes one key: the cache below marks every key a probe
   misses with (its tag overwritten) and restores it at the lookup that
   follows. A lookup that sees the mark was handed the probe's key
   untouched; one that does not must have a different key (a variable
   dropped, or the mirror orientation taken), so no key equal to the
   probe's is ever written twice. Under [Memo_simple] nothing is
   dropped or mirrored, so every lookup sees the mark. *)
let test_miss_writes_one_key () =
  let progs =
    List.map snd (perfect ())
    @ List.init 60 (fun index -> Parser.parse_program (Dda_perfect.Fuzz.program Mixed ~seed:5 ~index))
  in
  List.iter
    (fun memo ->
       let config = { Analyzer.default_config with memo } in
       let lookups = ref 0 and reused = ref 0 in
       List.iter
         (fun prog ->
            let inner = Analyzer.memory_cache () in
            let missed = ref [||] in
            let cache =
              {
                inner with
                Analyzer.probe_full =
                  (fun key ->
                     match inner.probe_full key with
                     | Some _ as hit -> hit
                     | None ->
                       missed := Array.copy key;
                       key.(0) <- -1;
                       None);
                find_or_add_full =
                  (fun key compute ->
                     incr lookups;
                     if key.(0) = -1 then begin
                       incr reused;
                       Array.blit !missed 0 key 0 (Array.length key)
                     end
                     else if key = !missed then
                       Alcotest.failf "a miss wrote the probe's key again: %s" (key_string key);
                     missed := [||];
                     inner.find_or_add_full key compute);
              }
            in
            ignore
              (Analyzer.analyze_sites ~config ~cache (Analyzer.front_end config prog).pairs))
         progs;
       if !lookups = 0 then Alcotest.fail "no lookups";
       if memo = Analyzer.Memo_simple then
         Alcotest.(check int) "Memo_simple: every lookup reuses the probe's key" !lookups !reused
       else if !reused = 0 then Alcotest.fail "no lookup reused the probe's key")
    Analyzer.[ Memo_simple; Memo_improved; Memo_symmetric ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "memo_probe"
    [
      ( "direct-key",
        [
          qt prop_direct_key;
          qt prop_no_key_past_small;
          Alcotest.test_case "PERFECT" `Quick test_perfect_keys;
          Alcotest.test_case "symbol order" `Quick test_symbol_order;
          qt prop_replay_key;
          Alcotest.test_case "PERFECT replay keys" `Quick test_perfect_replay_keys;
        ] );
      ( "canonical",
        [ qt prop_reduce_idempotent; Alcotest.test_case "PERFECT" `Quick test_perfect_idempotent ]
      );
      ( "warm",
        [
          qt prop_warm_answers;
          Alcotest.test_case "PERFECT" `Quick test_perfect_warm;
          Alcotest.test_case "failpoint ordinal" `Quick test_failpoint_ordinal;
          Alcotest.test_case "a miss writes one key" `Quick test_miss_writes_one_key;
        ] );
    ]
