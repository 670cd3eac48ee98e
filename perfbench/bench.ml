(* The end-to-end benchmark driver.

     bench.exe --workload perfect_batch|serve_warm|serve_mixed
               --seed N --seconds S --trace 0|1
     bench.exe gen-expected > perfbench/expected/verdicts.txt

   Run from the repository root, after building bin/ddtest.exe (see
   run.sh). Prints a human-readable table, then, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ledger. NOTES.md explains every workload and metric. *)

open Dda_lang
open Dda_core
open Perfbench

let config = Analyzer.default_config
let now = Unix.gettimeofday
let ddtest = "_build/default/bin/ddtest.exe"
let run_dir = ".perfbench_run"

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* reversed *)
}

let fresh_result () = { attempted = 0; failed = 0; metrics = [] }
let metric r name v unit = r.metrics <- (name, v, unit) :: r.metrics

let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.failed <= 5 then Printf.eprintf "perfbench: wrong output: %s\n%!" what
  end

let print_result r =
  let metrics = List.rev r.metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.4f  %s\n" n v u) metrics;
  Printf.printf "%-34s %16.6f  ratio (%d failed of %d attempted)\n" "failed_ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  (* Json_out has no floats, so only the numbers are printed by hand;
     names and units go through its string escaping. *)
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "perfbench: a metric is not a finite number"
  in
  let field (n, v, u) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
      (Json_out.to_string (Json_out.Str n))
      (num v)
      (Json_out.to_string (Json_out.Str u))
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat "," (List.map field metrics))

let per_item n v = if n = 0 then 0. else v /. float_of_int n
let ms s = s *. 1e3

(* Allocated words and collections between two [Gc.stat] readings;
   in OCaml 5 these sum every domain, the pool's included. *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  ( b.minor_words +. b.major_words -. b.promoted_words
    -. (a.minor_words +. a.major_words -. a.promoted_words),
    b.minor_words -. a.minor_words,
    b.major_collections - a.major_collections )

let peak_rss_mb () =
  match Dda_obs.Rusage.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "perfbench: no VmHWM reading"

let counter name = Dda_obs.Metrics.find_counter (Dda_obs.Metrics.snapshot ()) name

(* Throughput and latency percentiles per window of a run (a second
   of requests, or a round of the suite), reported from the side of
   the windows the host left alone: the upper quartile of the rates,
   the lower quartile of the percentiles. Interference on a shared
   host only ever slows a window down, so that side moves least from
   run to run, while a slower program slows every window. *)
let window_metrics r ?min_beyond ~rates lats =
  metric r "items_per_s" (Stats.quantile rates 0.75) "1/s";
  let lats = Array.map (Array.map ms) lats in
  metric r "latency_p50_ms" (Stats.quantile (Array.map Stats.median lats) 0.25) "ms";
  match
    Array.to_list lats |> List.filter_map (fun w -> Stats.tail_quantile ?min_beyond w 0.99)
  with
  | [] -> failwith "perfbench: too few samples per window for a p99"
  | p99s -> metric r "latency_p99_ms" (Stats.quantile (Array.of_list p99s) 0.25) "ms"

(* ------------------------------------------------------------------ *)
(* perfect_batch                                                       *)
(* ------------------------------------------------------------------ *)

let parse text =
  let prog = Parser.parse_program text in
  ignore (Semant.check prog);
  prog

(* What [ddtest batch --stream --lint --format json] emits for one item,
   and the item's verdict digest. *)
let render_perfect name report lint =
  let report_fields =
    match Json_out.report report with
    | Json_out.Obj fields -> List.map (fun (k, v) -> (k, Json_out.to_string v)) fields
    | _ -> invalid_arg "render_perfect: a report is an object"
  in
  let lint_s = Json_out.to_string (Dda_analysis.Lint.to_json ~file:name lint) in
  let chunk =
    Corpus.join
      [ ("file", Json_out.to_string (Json_out.Str name));
        ("report", Corpus.join report_fields); ("lint", lint_s) ]
    ^ "\n"
  in
  (chunk, Corpus.perfect_digest ~pairs:(List.assoc "pairs" report_fields) ~lint:lint_s)

(* Whole rounds of the suite until the deadline has passed at the end
   of a round. *)
let rounds ~seed ~deadline =
  let round = Corpus.perfect_round ~seed in
  let pos = ref (Array.length round) and over = ref false in
  fun () ->
    if (not !over) && !pos >= Array.length round then begin
      if now () >= deadline then over := true else pos := 0
    end;
    if !over then None
    else begin
      let spec = round.(!pos) in
      incr pos;
      Some (Corpus.perfect_name spec, fun () -> Corpus.perfect_text spec)
    end

(* One PERFECT item through the public calls [Stream.run ~lint:true]
   makes for it, rendered as [ddtest batch --stream --format json]
   renders it, all in this domain. With a ledger, each call is timed
   into its layer's row. Returns the chunk and its verdict digest. *)
let perfect_item ?ledger name text =
  let time row f = match ledger with Some t -> Layers.time t row f | None -> f () in
  let prog = time "lang.parse_us" (fun () -> parse text) in
  let report =
    match ledger with
    | Some t ->
        let report, _, _ = Layers.analyze t ~config prog in
        report
    | None -> Analyzer.analyze ~config prog
  in
  (* The linter re-derives the prepared program and sites, as the
     streaming engine's lint step does. *)
  let prepared = time "passes.pipeline_us" (fun () -> Dda_passes.Pipeline.run prog) in
  let sites =
    time "core.affine.extract_us" (fun () ->
        Affine.extract ~symbolic:config.Analyzer.symbolic prepared)
  in
  let lint =
    time "analysis.lint.us" (fun () ->
        Dda_analysis.Lint.of_report ~config ~prepared ~sites report)
  in
  time "core.json_out.render_us" (fun () -> render_perfect name report lint)

(* Run the items of [next] one after another, checking each item's
   verdicts. Returns each item's latency, from taking the item
   (generating its source included) to its chunk being rendered, less
   the ledger's key replay, which is the tracer's own work; and the
   time each item was rendered. *)
let perfect_run ?ledger r ~expected next =
  let latencies = ref [] and finished = ref [] in
  let replayed () = match ledger with Some t -> Layers.get t "trace.replay_us" | None -> 0. in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (name, text) ->
        let t0 = now () and replay0 = replayed () in
        let chunk, digest = perfect_item ?ledger name (text ()) in
        let t1 = now () in
        Option.iter
          (fun t -> Layers.add t "core.json_out.bytes" (float_of_int (String.length chunk)))
          ledger;
        latencies := (t1 -. t0 -. ((replayed () -. replay0) /. 1e6)) :: !latencies;
        finished := t1 :: !finished;
        check r (Corpus.matches expected name digest) name;
        loop ()
  in
  loop ();
  (Array.of_list (List.rev !latencies), Array.of_list (List.rev !finished))

(* The set-up a batch user pays once: one suite pass, then a settled
   heap. *)
let perfect_setup r ~expected =
  let t0 = now () in
  let specs = ref (Array.to_list Corpus.perfect_specs) in
  ignore
    (perfect_run r ~expected (fun () ->
         match !specs with
         | [] -> None
         | s :: tl ->
             specs := tl;
             Some (Corpus.perfect_name s, fun () -> Corpus.perfect_text s)));
  Gc.compact ();
  now () -. t0

(* A timed window: items, latencies, seconds, allocation and GC. *)
type window = {
  items : int;
  lat : float array;
  round_rates : float array;  (* items per second of each whole round *)
  secs : float;
  words : float;
  minor : float;
  majors : int;
  elims : int;
}

let perfect_window ?ledger r ~expected ~seed ~seconds =
  let g0 = Gc.stat () and e0 = counter "test.fourier.eliminations" in
  let t0 = now () in
  let lat, finished =
    perfect_run ?ledger r ~expected (rounds ~seed ~deadline:(t0 +. seconds))
  in
  let secs = now () -. t0 in
  let g1 = Gc.stat () in
  let words, minor, majors = gc_delta g0 g1 in
  let per_round = Array.length Corpus.perfect_specs in
  let round_rates =
    Array.init (Array.length finished / per_round) (fun k ->
        let last = ((k + 1) * per_round) - 1 in
        let start = if k = 0 then t0 else finished.((k * per_round) - 1) in
        float_of_int per_round /. (finished.(last) -. start))
  in
  { items = Array.length lat; lat; round_rates; secs; words; minor; majors;
    elims = counter "test.fourier.eliminations" - e0 }

let perfect_batch r ~seed ~seconds ~trace =
  let expected = Corpus.load_expected Corpus.expected_path in
  let setups = Array.init 3 (fun _ -> perfect_setup r ~expected) in
  let w = perfect_window r ~expected ~seed ~seconds in
  let ips = float_of_int w.items /. w.secs in
  if not trace then begin
    metric r "setup_s" (Stats.median setups) "s";
    (* A round holds one item per suite program, so its p99 rests on
       fewer than ten samples beyond it: it reads the slowest program
       of the suite, item by item, never a throughput. *)
    let per_round = Array.length Corpus.perfect_specs in
    window_metrics r ~min_beyond:0 ~rates:w.round_rates
      (Array.init (Array.length w.round_rates) (fun k -> Array.sub w.lat (k * per_round) per_round));
    metric r "alloc_words_per_item" (per_item w.items w.words) "words";
    metric r "peak_rss_mb" (peak_rss_mb ()) "MB"
  end
  else begin
    let t = Layers.create () in
    let tw = perfect_window ~ledger:t r ~expected ~seed ~seconds in
    let n = tw.items and wall = Array.fold_left ( +. ) 0. tw.lat *. 1e6 in
    let us name = per_item n (Layers.get t name) in
    List.iter
      (fun (name, unit) -> metric r name (us name) unit)
      [ ("lang.parse_us", "us"); ("passes.pipeline_us", "us");
        ("core.affine.extract_us", "us"); ("core.analyzer.site_pairs_us", "us");
        ("core.analyzer.pairs", "count"); ("core.build_problem.us", "us");
        ("core.canonical.us", "us"); ("core.problem.key_us", "us") ];
    metric r "core.memo.full_lookups" (us "memo.full_lookups") "count";
    metric r "core.memo.full_hit_ratio"
      (Layers.get t "memo.full_hits" /. Float.max 1. (Layers.get t "memo.full_lookups"))
      "ratio";
    metric r "core.memo.gcd_hit_ratio"
      (Layers.get t "memo.gcd_hits" /. Float.max 1. (Layers.get t "memo.gcd_lookups"))
      "ratio";
    List.iter
      (fun s ->
        metric r ("core." ^ s ^ ".us") (us ("core." ^ s ^ ".us")) "us";
        metric r ("core." ^ s ^ ".calls") (us ("core." ^ s ^ ".calls")) "count")
      Layers.stage_names;
    metric r "core.fourier.eliminations" (per_item w.items (float_of_int w.elims)) "count";
    metric r "core.analyzer.pair_other_us" (us "core.analyzer.pair_other_us") "us";
    metric r "analysis.lint.us" (us "analysis.lint.us") "us";
    metric r "core.json_out.render_us" (us "core.json_out.render_us") "us";
    metric r "core.json_out.bytes" (us "core.json_out.bytes") "bytes";
    metric r "server.handle_us" 0. "us";
    metric r "server.transport_us" 0. "us";
    metric r "cache.store.appends" 0. "count";
    metric r "cache.store.replayed" 0. "count";
    metric r "gc.minor_words" (per_item w.items w.minor) "words";
    metric r "gc.major_collections" (per_item w.items (float_of_int w.majors)) "count";
    metric r "residual_pct" (100. *. (wall -. Layers.covered t) /. wall) "%";
    metric r "trace_overhead_pct" (100. *. ((per_item n tw.secs *. ips) -. 1.)) "%"
  end

(* ------------------------------------------------------------------ *)
(* serve_warm / serve_mixed                                            *)
(* ------------------------------------------------------------------ *)

let rm path = try Sys.remove path with Sys_error _ -> ()

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let program_text = function
  | Corpus.Repeat i -> Corpus.fuzz_text i
  | Corpus.Fresh j -> Corpus.fresh_text j

(* The client side of a serve run: sends requests, times each one from
   send to the full response line, and checks every answer — repeated
   programs against their committed digest, fresh ones through the
   committed digest chain. *)
type client = {
  r : result;
  expected : (string, string) Hashtbl.t;
  corpus_lines : string array;
  explain_lines : string array;
  verified : (int, string) Hashtbl.t;  (* corpus index -> checked answer *)
  mutable fresh_n : int;
  mutable chain : string;
}

(* Every fresh answer, right or wrong, advances the chain, so the
   count of fresh programs sent is [fresh_n]. *)
let check_fresh cl digest =
  cl.fresh_n <- cl.fresh_n + 1;
  cl.chain <- Corpus.chain cl.chain digest;
  if cl.fresh_n mod Corpus.fresh_checkpoint = 0 then
    check cl.r
      (Corpus.matches cl.expected (Corpus.fresh_name cl.fresh_n) cl.chain)
      (Printf.sprintf "fresh programs up to %d" cl.fresh_n)

(* Send one request; returns (latency, parsed response). *)
let send cl conn ?(explain = false) req =
  let line =
    match req with
    | Corpus.Repeat i -> (if explain then cl.explain_lines else cl.corpus_lines).(i)
    | Corpus.Fresh _ -> Corpus.analyze_request ~explain (program_text req)
  in
  let t0 = now () in
  let resp = Client.call conn line in
  let lat = now () -. t0 in
  match req with
  | Corpus.Repeat i when Hashtbl.find_opt cl.verified i = Some resp ->
      (* Byte-identical to an answer already checked. *)
      check cl.r true "";
      (lat, None)
  | _ -> (
      match (Corpus.response_digest resp, req) with
      | Ok (d, j), Corpus.Repeat i ->
          let ok = Corpus.matches cl.expected (Corpus.fuzz_name i) d in
          check cl.r ok (Corpus.fuzz_name i);
          if ok && not explain then Hashtbl.replace cl.verified i resp;
          (lat, Some j)
      | Ok (d, j), Corpus.Fresh _ ->
          check_fresh cl d;
          (lat, Some j)
      | Error e, Corpus.Repeat _ ->
          check cl.r false e;
          (lat, None)
      | Error e, Corpus.Fresh _ ->
          check cl.r false e;
          check_fresh cl "";
          (lat, None))

let prime cl conn =
  for i = 0 to Corpus.fuzz_size - 1 do
    ignore (send cl conn (Corpus.Repeat i))
  done

(* Fresh programs past the last checkpoint are sent untimed until the
   next one, so every fresh answer is checked. *)
let finish_chain cl conn next_fresh =
  while cl.fresh_n mod Corpus.fresh_checkpoint <> 0 do
    ignore (send cl conn (next_fresh ()))
  done

(* The daemon's peak RSS is read after this many timed requests, so it
   covers the same work however fast the daemon is. *)
let rss_after = 4096

type phase = {
  reqs : Corpus.request array;  (* the timed requests, in order *)
  lats : float array;
  ends : float array;  (* completion offsets from the window's start *)
  answers : Json_out.t option array;
  p_secs : float;
  rss_kb : int;  (* the daemon's VmHWM after [rss_after] requests *)
}

(* A closed loop of requests until the deadline, or until the next
   fresh program could run past the committed pool. *)
let serve_window cl conn ~next ~seconds ~explain =
  let reqs = ref [] and lats = ref [] and ends = ref [] and answers = ref [] in
  let count = ref 0 and rss_kb = ref 0 in
  let fresh_limit = Corpus.fresh_pool - Corpus.fresh_checkpoint in
  let t0 = now () in
  let deadline = t0 +. seconds in
  while now () < deadline && cl.fresh_n < fresh_limit do
    let req = next () in
    let lat, j = send cl conn ~explain req in
    reqs := req :: !reqs;
    lats := lat :: !lats;
    ends := (now () -. t0) :: !ends;
    answers := (if explain then j else None) :: !answers;
    incr count;
    if !count = rss_after then rss_kb := Client.int_at [ "peak_rss_kb" ] (Client.status conn)
  done;
  let p_secs = now () -. t0 in
  if !rss_kb = 0 then rss_kb := Client.int_at [ "peak_rss_kb" ] (Client.status conn);
  let arr l = Array.of_list (List.rev l) in
  { reqs = arr !reqs; lats = arr !lats; ends = arr !ends; answers = arr !answers; p_secs;
    rss_kb = !rss_kb }

(* In-process replay of a request sequence through the daemon's own
   calls — parse, analyze over a durable cache opened on a copy of the
   store, render — with allocation, GC and solver counters read
   around it. With a ledger, every layer is timed as well. *)
type replay = {
  n : int;
  rw : float;
  rminor : float;
  rmajors : int;
  relims : int;
  replayed : int;
}

let replay_requests ?ledger ~limit ~store reqs =
  let reqs = if Array.length reqs > limit then Array.sub reqs 0 limit else reqs in
  let cache, recovery = Dda_cache.Durable.create ~path:store ~fsync:false ~config () in
  let replayed = match recovery with Some rc -> rc.Dda_cache.Store.records | None -> 0 in
  let texts = Array.map program_text reqs in
  let response report =
    Json_out.to_string
      (Json_out.Obj
         [ ("id", Json_out.Null); ("ok", Json_out.Bool true);
           ("pairs", Corpus.report_pairs report) ])
  in
  let g0 = Gc.stat () and e0 = counter "test.fourier.eliminations" in
  Array.iter
    (fun text ->
      match ledger with
      | None ->
          let report =
            Analyzer.analyze ~config ~cache:(Dda_cache.Durable.cache cache)
              (Parser.parse_program text)
          in
          ignore (response report)
      | Some t ->
          let prog = Layers.time t "lang.parse_us" (fun () -> Parser.parse_program text) in
          let report, _, _ =
            Layers.analyze t ~cache:(Dda_cache.Durable.cache cache) ~config prog
          in
          let s = Layers.time t "core.json_out.render_us" (fun () -> response report) in
          Layers.add t "core.json_out.bytes" (float_of_int (String.length s)))
    texts;
  let g1 = Gc.stat () in
  Dda_cache.Durable.close cache;
  let rw, rminor, rmajors = gc_delta g0 g1 in
  { n = Array.length reqs; rw; rminor; rmajors;
    relims = counter "test.fourier.eliminations" - e0; replayed }

(* Analyze access-log lines, in request order. *)
let access_ns path =
  let ic = open_in path in
  let out = ref [] in
  (try
     while true do
       match Json_out.of_string (input_line ic) with
       | Ok j when Json_out.member "op" j = Some (Json_out.Str "analyze") ->
           out := Client.int_at [ "ns" ] j :: !out
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Array.of_list (List.rev !out)

let serve ~mixed r ~seed ~seconds ~trace =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path f = Filename.concat run_dir f in
  let store = path "serve.store" and socket = path "serve.sock" in
  let access = path "access.jsonl" and snap_a = path "replay-a.store" in
  let snap_b = path "replay-b.store" in
  let scratch = [ store; socket ^ ".log"; access; snap_a; snap_b ] in
  List.iter rm scratch;
  let lines ~explain =
    Array.init Corpus.fuzz_size (fun i -> Corpus.analyze_request ~explain (Corpus.fuzz_text i))
  in
  let cl =
    {
      r;
      expected = Corpus.load_expected Corpus.expected_path;
      corpus_lines = lines ~explain:false;
      explain_lines = lines ~explain:true;
      verified = Hashtbl.create Corpus.fuzz_size;
      fresh_n = 0;
      chain = "";
    }
  in
  let start ?access_log () = Client.spawn ~exe:ddtest ~socket ~store ?access_log () in
  (* Set-up, from an empty store, repeated; the last daemon stays up
     for the window. serve_warm primes the store with a first daemon,
     drains it, and restarts over the store; serve_mixed primes its
     daemon and keeps it. *)
  let timed_setup () =
    let t0 = now () in
    let d = start () in
    let c = Client.connect d in
    prime cl c;
    let d, c =
      if mixed then (d, c)
      else begin
        Client.close c;
        Client.stop d;
        let d = start () in
        let c = Client.connect d in
        Client.ping c;
        (d, c)
      end
    in
    (now () -. t0, d, c)
  in
  let last = ref None in
  let setups =
    Array.init 5 (fun _ ->
        Option.iter (fun (d, c) -> Client.close c; Client.stop d) !last;
        rm store;
        let s, d, c = timed_setup () in
        last := Some (d, c);
        s)
  in
  let d, c = Option.get !last in
  (* Warm-up, untimed: a few passes over the corpus, all hits. *)
  for _ = 1 to 3 do
    prime cl c
  done;
  let next, following = Corpus.requests ~seed ~mixed in
  copy_file store snap_a;
  let a = serve_window cl c ~next ~seconds ~explain:false in
  finish_chain cl c following;
  Client.close c;
  Client.stop d;
  let plain = replay_requests ~limit:rss_after ~store:snap_a a.reqs in
  let ips = float_of_int (Array.length a.reqs) /. a.p_secs in
  if not trace then begin
    metric r "setup_s" (Stats.median setups) "s";
    let per_second = Stats.by_window ~width:1. ~ends:a.ends a.lats in
    window_metrics r
      ~rates:(Array.map (fun w -> float_of_int (Array.length w)) per_second)
      per_second;
    metric r "alloc_words_per_item" (per_item plain.n plain.rw) "words";
    metric r "peak_rss_mb" (float_of_int a.rss_kb /. 1024.) "MB"
  end
  else begin
    (* Traced phase: the same daemon restarted over the same store, now
       with an access log, answering explained requests. *)
    copy_file store snap_b;
    let d = start ~access_log:access () in
    let c = Client.connect d in
    let appends0 = Client.int_at [ "cache"; "appends" ] (Client.status c) in
    let b = serve_window cl c ~next ~seconds ~explain:true in
    let appends1 = Client.int_at [ "cache"; "appends" ] (Client.status c) in
    finish_chain cl c following;
    Client.close c;
    Client.stop d;
    let n = Array.length b.reqs in
    let ns = access_ns access in
    if Array.length ns < n then failwith "perfbench: access log is short";
    let handle = Array.init n (fun i -> float_of_int ns.(i) /. 1e3) in
    let transport = Array.init n (fun i -> (b.lats.(i) *. 1e6) -. handle.(i)) in
    let t = Layers.create () in
    let traced = replay_requests ~ledger:t ~limit:20000 ~store:snap_b b.reqs in
    let us name = per_item traced.n (Layers.get t name) in
    let explained path =
      Array.fold_left
        (fun acc j ->
          match j with
          | Some j -> acc +. float_of_int (Client.int_at ("explain" :: path) j)
          | None -> acc)
        0. b.answers
    in
    List.iter
      (fun (name, unit) -> metric r name (us name) unit)
      [ ("lang.parse_us", "us"); ("passes.pipeline_us", "us");
        ("core.affine.extract_us", "us"); ("core.analyzer.site_pairs_us", "us");
        ("core.analyzer.pairs", "count"); ("core.build_problem.us", "us");
        ("core.canonical.us", "us"); ("core.problem.key_us", "us") ];
    let full_lookups = explained [ "memo"; "full_lookups" ] in
    let full_ratio = explained [ "memo"; "full_hits" ] /. Float.max 1. full_lookups in
    metric r "core.memo.full_lookups" (per_item n full_lookups) "count";
    metric r "core.memo.full_hit_ratio" full_ratio "ratio";
    metric r "core.memo.gcd_hit_ratio"
      (explained [ "memo"; "gcd_hits" ] /. Float.max 1. (explained [ "memo"; "gcd_lookups" ]))
      "ratio";
    let stage_calls = ref 0. in
    List.iter
      (fun s ->
        let calls = explained [ "stages"; s; "calls" ] in
        stage_calls := !stage_calls +. calls;
        metric r ("core." ^ s ^ ".us") (per_item n (explained [ "stages"; s; "ns" ] /. 1e3)) "us";
        metric r ("core." ^ s ^ ".calls") (per_item n calls) "count")
      Layers.stage_names;
    metric r "core.fourier.eliminations" (per_item plain.n (float_of_int plain.relims)) "count";
    metric r "core.analyzer.pair_other_us" (us "core.analyzer.pair_other_us") "us";
    metric r "analysis.lint.us" 0. "us";
    metric r "core.json_out.render_us" (us "core.json_out.render_us") "us";
    metric r "core.json_out.bytes" (us "core.json_out.bytes") "bytes";
    metric r "server.handle_us" (Stats.mean handle) "us";
    metric r "server.transport_us" (Stats.mean transport) "us";
    let appends = appends1 - appends0 in
    metric r "cache.store.appends" (per_item n (float_of_int appends)) "count";
    metric r "cache.store.replayed" (float_of_int traced.replayed) "count";
    metric r "gc.minor_words" (per_item plain.n plain.rminor) "words";
    metric r "gc.major_collections" (per_item plain.n (float_of_int plain.rmajors)) "count";
    let latency_us = Stats.mean b.lats *. 1e6 in
    let covered = (Layers.covered t /. float_of_int traced.n) +. Stats.mean transport in
    metric r "residual_pct" (100. *. (latency_us -. covered) /. latency_us) "%";
    metric r "trace_overhead_pct"
      (100. *. ((ips /. (float_of_int n /. b.p_secs)) -. 1.))
      "%";
    (* The ledger's predictions for this workload. *)
    if mixed then check r (appends > 0) "serve_mixed appended nothing to the store"
    else begin
      check r (!stage_calls = 0.) "serve_warm ran cascade stages";
      check r (full_ratio = 1.0) "serve_warm missed the full memo table";
      check r (appends = 0) "serve_warm appended to the store"
    end
  end;
  List.iter rm scratch

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

(* Analyze one program as the workloads do, certificate-check every
   verdict with the verifier, and return the report. *)
let certified name prog =
  let prepared = Dda_passes.Pipeline.run prog in
  let sites = Affine.extract ~symbolic:config.Analyzer.symbolic prepared in
  let pairs = Analyzer.site_pairs config sites in
  let report = Analyzer.analyze ~config prog in
  let v = Dda_check.Verify.verify_report ~oracle:false ~config pairs report in
  if v.Dda_check.Verify.errors > 0 then
    failwith (Printf.sprintf "%s: %d certificate error(s)" name v.Dda_check.Verify.errors);
  (report, prepared, sites)

let gen_expected () =
  Array.iter
    (fun spec ->
      let name = Corpus.perfect_name spec in
      let report, prepared, sites = certified name (parse (Corpus.perfect_text spec)) in
      let lint = Dda_analysis.Lint.of_report ~config ~prepared ~sites report in
      Printf.printf "%s %s\n%!" name (snd (render_perfect name report lint)))
    Corpus.perfect_specs;
  for i = 0 to Corpus.fuzz_size - 1 do
    let name = Corpus.fuzz_name i in
    let report, _, _ = certified name (Parser.parse_program (Corpus.fuzz_text i)) in
    Printf.printf "%s %s\n" name (Corpus.pairs_digest (Corpus.report_pairs report))
  done;
  let chain = ref "" in
  for j = 0 to Corpus.fresh_pool - 1 do
    let name = Printf.sprintf "fresh program %d" j in
    let report, _, _ = certified name (Parser.parse_program (Corpus.fresh_text j)) in
    chain := Corpus.chain !chain (Corpus.pairs_digest (Corpus.report_pairs report));
    if (j + 1) mod Corpus.fresh_checkpoint = 0 then
      Printf.printf "%s %s\n" (Corpus.fresh_name (j + 1)) !chain
  done

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload perfect_batch|serve_warm|serve_mixed --seed N \
     --seconds S --trace 0|1\n       bench.exe gen-expected";
  exit 2

let () =
  Dda_obs.Attrib.set_time_source (fun () -> int_of_float (now () *. 1e9));
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen-expected" ] -> gen_expected ()
  | args ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let int_opt k =
        match Option.bind (List.assoc_opt k o) int_of_string_opt with
        | Some n -> n
        | None -> usage ()
      in
      let seed = int_opt "seed" and seconds = float_of_int (int_opt "seconds") in
      let trace = int_opt "trace" <> 0 in
      if not (Sys.file_exists ddtest && Sys.file_exists Corpus.expected_path) then begin
        prerr_endline "perfbench: run from the repository root after building (see run.sh)";
        exit 2
      end;
      let r = fresh_result () in
      (match List.assoc_opt "workload" o with
       | Some "perfect_batch" -> perfect_batch r ~seed ~seconds ~trace
       | Some "serve_warm" -> serve ~mixed:false r ~seed ~seconds ~trace
       | Some "serve_mixed" -> serve ~mixed:true r ~seed ~seconds ~trace
       | _ -> usage ());
      print_result r
