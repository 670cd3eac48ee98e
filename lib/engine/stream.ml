open Dda_lang
open Dda_core

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

type item = {
  name : string;
  text : unit -> string;
}

type source = unit -> item option

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_files paths =
  let rest = ref paths in
  fun () ->
    match !rest with
    | [] -> None
    | p :: tl ->
      rest := tl;
      Some { name = p; text = (fun () -> read_file p) }

let of_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dd")
    |> List.sort String.compare
    |> List.map (fun f -> Filename.concat dir f)
  in
  of_files files

let of_perfect ?(amplify = 1) () =
  if amplify < 1 then invalid_arg "Stream.of_perfect: amplify must be >= 1";
  let specs = ref Dda_perfect.Programs.all in
  let copy = ref 0 in
  let rec next () =
    match !specs with
    | [] -> None
    | spec :: tl ->
      if !copy >= amplify then begin
        specs := tl;
        copy := 0;
        next ()
      end
      else begin
        let k = !copy in
        incr copy;
        Some
          {
            name =
              Printf.sprintf "perfect:%s:%d" spec.Dda_perfect.Programs.name k;
            (* Copy 0 is the original suite program; further copies
               shift the seed, so amplification adds fresh-but-alike
               material rather than duplicates. *)
            text =
              (fun () ->
                Dda_perfect.Programs.source
                  {
                    spec with
                    Dda_perfect.Programs.seed =
                      spec.Dda_perfect.Programs.seed + (7919 * k);
                  });
          }
      end
  in
  next

let of_fuzz ~profile ~seed n =
  if n < 0 then invalid_arg "Stream.of_fuzz: count must be >= 0";
  let i = ref 0 in
  fun () ->
    if !i >= n then None
    else begin
      let index = !i in
      incr i;
      Some
        {
          name =
            Printf.sprintf "fuzz:%s:%d:%d"
              (Dda_perfect.Fuzz.profile_name profile)
              seed index;
          text =
            (fun () -> Dda_perfect.Fuzz.program profile ~seed ~index);
        }
    end

let concat sources =
  let rest = ref sources in
  let rec next () =
    match !rest with
    | [] -> None
    | s :: tl -> (
      match s () with
      | Some _ as r -> r
      | None ->
        rest := tl;
        next ())
  in
  next

(* ------------------------------------------------------------------ *)
(* Per-item processing                                                 *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Analyzed of {
      name : string;
      report : Analyzer.report;
      verification : Dda_check.Verify.summary option;
      lint : Dda_analysis.Lint.result option;
      attempts : int;
    }
  | Quarantined of { name : string; attempts : int; error : string }

type summary = {
  total : int;
  replayed : int;
  retried : int;
  quarantined : int;
  verify_errors : int;
  interrupted : bool;
  merged : Analyzer.stats;
}

(* Items, retries and quarantines are per-corpus-item events, so the
   counters come out the same whatever the worker count. *)
let m_items = Dda_obs.Metrics.counter "batch.items"
let m_retries = Dda_obs.Metrics.counter "batch.retries"
let m_quarantined = Dda_obs.Metrics.counter "batch.quarantined"
let m_appends = Dda_obs.Metrics.counter "stream.journal.appends"
let m_replayed = Dda_obs.Metrics.counter "stream.replayed"

(* An item whose input cannot be read or parsed: the input is static,
   so retrying cannot change the answer. *)
exception Bad_input of string

let () =
  Printexc.register_printer (function
    | Bad_input msg -> Some msg
    | _ -> None)

(* The item's source text. [Sys_error]'s message names the file when
   opening fails but not when reading does, so the file's name is put
   in front of the reason alone. *)
let read name text =
  match text () with
  | text -> text
  | exception Sys_error msg ->
    let prefix = name ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    raise (Bad_input (Printf.sprintf "%s: cannot read: %s" name reason))

let parse name text =
  match Parser.parse_program text with
  | prog ->
    List.iter
      (fun e -> Dda_obs.Log.debug "%s: %a" name Semant.pp_error e)
      (Semant.check prog);
    prog
  | exception Parser.Error (msg, loc) ->
    raise
      (Bad_input (Format.asprintf "%s:%a: syntax error: %s" name Loc.pp loc msg))
  | exception Lexer.Error (msg, loc) ->
    raise
      (Bad_input
         (Format.asprintf "%s:%a: lexical error: %s" name Loc.pp loc msg))

let md5_hex s = Digest.to_hex (Digest.string s)

(* What a worker gets for one item: source text, which it lexes,
   parses and digests (the digest is the journal's corpus key), or a
   program the caller already parsed, which has no text and no key. *)
type input =
  | Text of (unit -> string)
  | Program of Ast.program

(* One item, with fault isolation: an exception (a worker bug, an
   injected failure, a blown budget escaping some future stage) is
   retried with jittered exponential backoff ({!Retry}), then the item
   is quarantined — except that an unreadable input, or a parse or
   lexical error, quarantines immediately: the input is static,
   retrying cannot change the answer.
   The watchdog deadline is cooperative — the budget polls [cancel] and
   degrades the verdict — so a stuck item comes back conservative
   rather than killed. Returns the source-text digest alongside the
   outcome ("" when there is no text, or it was never obtained). *)
let process ~config ~cache ~verify ~lint ~retries ~backoff_ms ~item_timeout_ms
    ~idx ~name input =
  Dda_obs.Metrics.incr m_items;
  let item_cancel () =
    match item_timeout_ms with
    | None -> fun () -> false
    | Some ms ->
      let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
      fun () -> Unix.gettimeofday () > deadline
  in
  let key = ref "" in
  let rec go attempt =
    match
      Dda_obs.Trace.wrap ~name:"batch.item"
        ~args:(fun _ -> [ ("index", idx); ("attempt", attempt) ])
        (fun () ->
          Failpoint.hit "batch.item";
          let program =
            match input with
            | Program p -> p
            | Text text ->
              let text = read name text in
              key := md5_hex text;
              parse name text
          in
          let cancel = item_cancel () in
          (* One front end per item: the report, its verification and
             its lint summary all read it. *)
          let ({ Analyzer.pairs; _ } as front) =
            Analyzer.front_end config program
          in
          (* Live-shared memo tables: each item wraps the shared backend
             so its unique counts are its own misses. *)
          let cache = Option.map Analyzer.counted_cache cache in
          let report = Analyzer.analyze_sites ~config ~cancel ?cache pairs in
          let verification =
            if verify then
              Some (Dda_check.Verify.verify_report ~cancel ~config pairs report)
            else None
          in
          let lint_summary =
            if lint then
              Some (Dda_analysis.Lint.of_front ~config ~cancel front report)
            else None
          in
          (report, verification, lint_summary))
    with
    | report, verification, lint ->
      (!key, Analyzed { name; report; verification; lint; attempts = attempt })
    | exception Bad_input msg ->
      Dda_obs.Metrics.incr m_quarantined;
      Dda_obs.Log.info "stream: quarantining %s (bad input): %s" name msg;
      (!key, Quarantined { name; attempts = attempt; error = msg })
    | exception e ->
      if attempt <= retries then begin
        Dda_obs.Metrics.incr m_retries;
        Dda_obs.Log.info "stream: retrying %s (attempt %d of %d): %s" name
          (attempt + 1) (retries + 1) (Printexc.to_string e);
        Retry.sleep ~base_ms:backoff_ms ~index:idx ~attempt;
        go (attempt + 1)
      end
      else begin
        Dda_obs.Metrics.incr m_quarantined;
        Dda_obs.Log.info "stream: quarantining %s after %d attempts: %s" name
          attempt (Printexc.to_string e);
        ( !key,
          Quarantined { name; attempts = attempt; error = Printexc.to_string e }
        )
      end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

(* A record log ({!Dda_cache.Record_log}) whose fingerprint is the
   configuration digest. Each payload is one JSON object carrying
   everything needed to replay the item without re-analyzing it: its
   name, the source-text digest (corpus identity), attempts, findings,
   the flattened statistics (or the quarantine) and the rendered
   output chunk. A record's position is its corpus index and its frame
   digest the integrity check. *)

let journal_magic = "%DDAJOURN1\n"

(* Everything the journaled outputs and statistics depend on: [lint]
   changes the rendered output and the finding counts, [share_memo]
   the per-item memo statistics. *)
let config_digest ?(lint = false) ?(share_memo = false) config ~verify =
  Digest.string (Marshal.to_string (config, verify, lint, share_memo) [])

type jrecord = {
  j_name : string;
  j_key : string;
  j_out : string;
  j_attempts : int;
  j_verrs : int;
  j_stats : Analyzer.stats option;  (* [None] = quarantined *)
}

let record_payload ~key out outcome =
  let name, attempts, verrs, stats, error =
    match outcome with
    | Analyzed a ->
      (* Lint race errors count with verification errors: both are
         findings that must drive the exit code identically on a clean
         and a resumed run, so both travel in the journal's [verrs]. *)
      ( a.name,
        a.attempts,
        (match a.verification with
         | Some s -> s.Dda_check.Verify.errors
         | None -> 0)
        + (match a.lint with
           | Some l -> l.Dda_analysis.Lint.errors
           | None -> 0),
        Some a.report.Analyzer.stats,
        None )
    | Quarantined q -> (q.name, q.attempts, 0, None, Some q.error)
  in
  Json_out.to_string
    (Json_out.Obj
       ([
          ("name", Json_out.Str name);
          ("key", Json_out.Str key);
          ("attempts", Json_out.Int attempts);
          ("verrs", Json_out.Int verrs);
        ]
       @ (match stats with
          | Some s ->
            [
              ( "stats",
                Json_out.List
                  (List.map
                     (fun n -> Json_out.Int n)
                     (Analyzer.stats_to_list s)) );
            ]
          | None -> [])
       @ (match error with
          | Some e -> [ ("q", Json_out.Bool true); ("error", Json_out.Str e) ]
          | None -> [])
       @ [ ("out", Json_out.Str out) ]))

let jfail path reason = failwith (Printf.sprintf "journal %s: %s" path reason)

let jint path j key =
  match Json_out.member key j with
  | Some (Json_out.Int n) -> n
  | _ -> jfail path (Printf.sprintf "record is missing %S" key)

let jstr path j key =
  match Json_out.member key j with
  | Some (Json_out.Str s) -> s
  | _ -> jfail path (Printf.sprintf "record is missing %S" key)

let parse_record path ~index payload =
  match Json_out.of_string payload with
  | Error msg ->
    jfail path (Printf.sprintf "corrupt record %d: %s" index msg)
  | Ok j ->
    let quarantined =
      match Json_out.member "q" j with
      | Some (Json_out.Bool true) -> true
      | _ -> false
    in
    let stats =
      if quarantined then None
      else
        match Json_out.member "stats" j with
        | Some (Json_out.List l) ->
          let ints =
            List.map
              (function
                | Json_out.Int n -> n
                | _ -> jfail path (Printf.sprintf "record %d: bad stats" index))
              l
          in
          (match Analyzer.stats_of_list ints with
           | Some s -> Some s
           | None ->
             jfail path
               (Printf.sprintf
                  "record %d: stats written by an incompatible build" index))
        | _ -> jfail path (Printf.sprintf "record %d: missing stats" index)
    in
    {
      j_name = jstr path j "name";
      j_key = jstr path j "key";
      j_out = jstr path j "out";
      j_attempts = jint path j "attempts";
      j_verrs = jint path j "verrs";
      j_stats = stats;
    }

(* Hand every intact record to [f] with its index, in bounded memory.
   A torn tail is reported in the scan (only [resume] truncates it);
   anything else — a bad header, a record failing its digest — means
   the file is not the journal this corpus wrote, and refuses. *)
let read_journal ~fingerprint path f =
  let index = ref 0 in
  let deliver payload =
    f !index (parse_record path ~index:!index payload);
    incr index;
    true
  in
  match
    Dda_cache.Record_log.read ~magic:journal_magic ~fingerprint path deliver
  with
  | Error Short_header -> jfail path "not a journal (truncated header)"
  | Error Bad_magic -> jfail path "not a journal (bad magic)"
  | Error Bad_fingerprint ->
    jfail path "written under a different configuration; re-run without --resume"
  | Ok { damage = Some Corrupt; records; _ } ->
    jfail path (Printf.sprintf "record %d fails its digest check" records)
  | Ok scan -> scan

(* Write failures surface as [Failure], like every other journal
   error. *)
let jio path f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    jfail path ("cannot write: " ^ Unix.error_message e)

let hit_journal () = Failpoint.hit "stream.journal"

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* The one driver: [next] pulls the next item's name and input. Only
   {!run} passes a journal, and its items are all [Text]. *)
let drive ?(config = Analyzer.default_config) ?(share_memo = false)
    ?(verify = false)
    ?(lint = false) ?(retries = 1) ?(backoff_ms = 50) ?item_timeout_ms
    ?journal ?(resume = false) ?(stop = fun () -> false) ~jobs ~render ~emit
    next =
  if jobs < 1 then invalid_arg "Stream.run: jobs must be >= 1";
  if retries < 0 then invalid_arg "Stream.run: retries must be >= 0";
  if backoff_ms < 0 then invalid_arg "Stream.run: backoff_ms must be >= 0";
  if resume && journal = None then
    invalid_arg "Stream.run: resume requires a journal";
  let cfg_digest = config_digest ~lint ~share_memo config ~verify in
  (* The live-shared tables are bounded by the corpus's distinct
     problems, not its length: the one piece of state that deliberately
     outlives the sliding window. *)
  let cache =
    if share_memo then Some (Analyzer.shared_cache (Analyzer.create_shared ()))
    else None
  in
  let nreplay =
    match journal with
    | Some path when resume ->
      let scan =
        try read_journal ~fingerprint:cfg_digest path (fun _ _ -> ())
        with Sys_error msg -> failwith (Printf.sprintf "journal: %s" msg)
      in
      if scan.damage = Some Torn then begin
        (* A crash mid-append left a torn final record: drop it (the
           item re-analyzes below) and keep the intact prefix. *)
        Dda_obs.Log.warn
          "journal %s: dropping a torn final record (%d byte(s)); %d intact \
           record(s) kept"
          path (scan.file_len - scan.good_end) scan.records;
        jio path (fun () -> Dda_cache.Record_log.truncate path scan)
      end;
      scan.records
    | _ -> 0
  in
  let merged = Analyzer.fresh_stats () in
  (* The replayed records' (gcd, full) unique counts, kept apart for
     the live-shared rule at the end. *)
  let replayed_unique = ref (0, 0) in
  let total = ref 0 in
  let retried = ref 0 in
  let quarantined = ref 0 in
  let verify_errors = ref 0 in
  let interrupted = ref false in
  (* Replay: walk the journal and the source in lockstep, re-deriving
     each journaled item from the source to prove the corpus is the
     one the journal was written against, then re-emit the stored
     output byte for byte. The whole file was validated above, so a
     refused resume has emitted nothing. *)
  if nreplay > 0 then begin
    let path = Option.get journal in
    ignore
      (read_journal ~fingerprint:cfg_digest path (fun index r ->
           let name, input =
             match next () with
             | Some item -> item
             | None ->
               jfail path
                 (Printf.sprintf
                    "has %d records but the corpus ends at item %d" nreplay
                    index)
           in
           if not (String.equal r.j_name name) then
             jfail path
               (Printf.sprintf
                  "record %d is for %S but the corpus has %S here" index
                  r.j_name name);
           (match input with
            | Text text when r.j_key <> "" -> (
              match text () with
              | text ->
                if not (String.equal (md5_hex text) r.j_key) then
                  jfail path
                    (Printf.sprintf
                       "record %d: %S has changed since the journal was \
                        written"
                       index name)
              | exception _ ->
                (* The item failed to read back; the journaled verdict
                   (likely a quarantine) still stands. *)
                ())
            | Text _ | Program _ -> ());
           incr total;
           Dda_obs.Metrics.incr m_replayed;
           (match r.j_stats with
            | Some s ->
              Analyzer.merge_stats ~into:merged s;
              let g, f = !replayed_unique in
              replayed_unique :=
                ( g + s.Analyzer.memo_unique_nobounds,
                  f + s.Analyzer.memo_unique_full )
            | None -> incr quarantined);
           if r.j_attempts > 1 then incr retried;
           verify_errors := !verify_errors + r.j_verrs;
           emit r.j_out))
  end;
  (* Open (or start) the write-ahead journal. *)
  let jfd =
    Option.map
      (fun path ->
        ( path,
          jio path (fun () ->
              if resume then Dda_cache.Record_log.open_append path
              else
                Dda_cache.Record_log.create ~magic:journal_magic
                  ~fingerprint:cfg_digest path) ))
      journal
  in
  (* The record is fsynced before its chunk is emitted; the failpoint
     fires before anything is written, so a crash injected there
     leaves the journal without the record — never with a torn one. *)
  let append (path, fd) payload =
    jio path (fun () ->
        Dda_cache.Record_log.append ~before:hit_journal ~mid:ignore
          ~fsync:true fd payload);
    Dda_obs.Metrics.incr m_appends
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun (_, fd) -> try Unix.close fd with _ -> ()) jfd)
    (fun () ->
      let pool = Pool.create ~jobs in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          (* The sliding window: at most [max 2 (2 * jobs)] items
             pulled, parsed and in flight at once; the head is awaited
             (input order), journaled, emitted, and its slot refilled.
             Peak memory is proportional to the window, not the
             corpus. *)
          let window = max 2 (2 * jobs) in
          let pending = Queue.create () in
          let exhausted = ref false in
          let next_idx = ref nreplay in
          let fill () =
            while
              (not !exhausted) && (not !interrupted)
              && Queue.length pending < window
            do
              if stop () then interrupted := true
              else
                match next () with
                | None -> exhausted := true
                | Some (name, input) ->
                let idx = !next_idx in
                incr next_idx;
                Queue.add
                  ( name,
                    Pool.submit pool (fun () ->
                        process ~config ~cache ~verify ~lint ~retries
                          ~backoff_ms ~item_timeout_ms ~idx ~name input) )
                  pending
            done
          in
          fill ();
          while not (Queue.is_empty pending) do
            let name, promise = Queue.pop pending in
            let key, outcome =
              match Pool.await promise with
              | r -> r
              | exception e ->
                (* Died outside per-item isolation (the pool job
                   itself): quarantine, attempts 0. *)
                Dda_obs.Metrics.incr m_quarantined;
                ("", Quarantined { name; attempts = 0; error = Printexc.to_string e })
            in
            let out = render outcome in
            incr total;
            (match outcome with
             | Analyzed a ->
               Analyzer.merge_stats ~into:merged a.report.Analyzer.stats;
               if a.attempts > 1 then incr retried;
               (match a.verification with
                | Some s ->
                  verify_errors := !verify_errors + s.Dda_check.Verify.errors
                | None -> ());
               (match a.lint with
                | Some l ->
                  verify_errors := !verify_errors + l.Dda_analysis.Lint.errors
                | None -> ())
             | Quarantined q ->
               incr quarantined;
               if q.attempts > 1 then incr retried);
            Option.iter
              (fun j -> append j (record_payload ~key out outcome))
              jfd;
            emit out;
            fill ()
          done));
  (* Live-shared tables already hold the union of every analyzed
     item's problems, so their sizes are the distinct-problem counts;
     summed per-item misses over-count a key two domains raced to
     compute. Replayed records never touched these tables and keep
     their journaled counts. *)
  Option.iter
    (fun (c : Analyzer.cache) ->
      let gcd, full = c.cache_sizes () in
      let rg, rf = !replayed_unique in
      merged.Analyzer.memo_unique_nobounds <- rg + gcd;
      merged.Analyzer.memo_unique_full <- rf + full)
    cache;
  {
    total = !total;
    replayed = nreplay;
    retried = !retried;
    quarantined = !quarantined;
    verify_errors = !verify_errors;
    interrupted = !interrupted;
    merged;
  }

let run ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
    ?item_timeout_ms ?journal ?resume ?stop ~jobs ~render ~emit source =
  drive ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
    ?item_timeout_ms ?journal ?resume ?stop ~jobs ~render ~emit (fun () ->
      Option.map (fun it -> (it.name, Text it.text)) (source ()))

let run_programs ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
    ?item_timeout_ms ~jobs programs =
  let rest = ref programs in
  let outcomes = ref [] in
  (* Nothing is journaled or emitted: the outcomes themselves are the
     result. *)
  let summary =
    drive ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
      ?item_timeout_ms ~jobs
      ~render:(fun o ->
        outcomes := o :: !outcomes;
        "")
      ~emit:ignore
      (fun () ->
        match !rest with
        | [] -> None
        | (name, program) :: tl ->
          rest := tl;
          Some (name, Program program))
  in
  (List.rev !outcomes, summary)
