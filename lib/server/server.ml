open Dda_lang
open Dda_core
open Dda_obs

type config = {
  socket_path : string;
  jobs : int;
  queue_limit : int;
  request_timeout_ms : int;
  analyzer : Analyzer.config;
  cache_path : string option;
  cache_fsync : bool;
  admin_port : int option;
  access_log : string option;
  slow_ms : int;
}

let default_config analyzer =
  {
    socket_path = "";
    jobs = 2;
    queue_limit = 64;
    request_timeout_ms = 0;
    analyzer;
    cache_path = None;
    cache_fsync = true;
    admin_port = None;
    access_log = None;
    slow_ms = 0;
  }

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* bytes read but not yet a complete line *)
  wlock : Mutex.t;  (* workers and the main loop interleave responses *)
  mutable pending : int;  (* worker tasks still holding this conn *)
  mutable eof : bool;  (* reap once [pending] drains to 0 *)
}

type t = {
  cfg : config;
  cache : Dda_cache.Durable.t;
  pool : Dda_engine.Pool.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  lock : Mutex.t;
  idle : Condition.t;  (* signaled when in_flight returns to 0 *)
  started : float;  (* wall time at create, for uptime *)
  serving : bool Atomic.t;  (* true between bind and drain, for /readyz *)
  access : out_channel option;
  access_lock : Mutex.t;
  mutable admin : Admin.t option;
  mutable next_req : int;  (* server-assigned request ids (logs only) *)
  mutable in_flight : int;
  mutable conns : conn list;
  mutable requests : int;
  mutable shed : int;
  mutable quarantined : int;
}

let m_requests = Metrics.counter "serve.requests"
let m_responses = Metrics.counter "serve.responses"
let m_shed = Metrics.counter "serve.shed"
let m_quarantined = Metrics.counter "serve.quarantined"
let m_queue_depth = Metrics.histogram "serve.queue_depth"
let m_access_failed = Metrics.counter "serve.access_log.failed"

(* Per-op latency histograms. The op set is closed, so the registry
   never grows with traffic (unknown ops all land in [serve.op.other]). *)
let h_op_ping = Metrics.histogram "serve.op.ping.ns"
let h_op_status = Metrics.histogram "serve.op.status.ns"
let h_op_analyze = Metrics.histogram "serve.op.analyze.ns"
let h_op_other = Metrics.histogram "serve.op.other.ns"

let op_hist = function
  | "ping" -> h_op_ping
  | "status" -> h_op_status
  | "analyze" -> h_op_analyze
  | _ -> h_op_other

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Access log                                                          *)
(* ------------------------------------------------------------------ *)

(* One JSONL line per request, written when the request's response is
   known (so latency and verdict flags are real). Log I/O failure is a
   counter, never an exception: telemetry must not fail a query. *)
let access_line t ~req ~op ~ok ~ns ~(flags : (string * Json_out.t) list) =
  match t.access with
  | None -> ()
  | Some oc ->
    let line =
      Json_out.to_string
        (Json_out.Obj
           ([
              ("ts_ms", Json_out.Int (int_of_float (Unix.gettimeofday () *. 1000.)));
              ("req", Json_out.Int req);
              ("op", Json_out.Str op);
              ("ok", Json_out.Bool ok);
              ("ns", Json_out.Int ns);
            ]
            @ flags))
    in
    Mutex.lock t.access_lock;
    (try
       output_string oc line;
       output_char oc '\n';
       flush oc
     with Sys_error _ -> Metrics.incr m_access_failed);
    Mutex.unlock t.access_lock

let finish_request t ~req ~op ~ok ~t0 ~flags =
  let ns = now_ns () - t0 in
  Metrics.observe (op_hist op) ns;
  access_line t ~req ~op ~ok ~ns ~flags;
  if t.cfg.slow_ms > 0 && ns > t.cfg.slow_ms * 1_000_000 then
    Log.warn "serve: slow request #%d (%s): %d ms (threshold %d ms)" req op
      (ns / 1_000_000) t.cfg.slow_ms

(* ------------------------------------------------------------------ *)
(* Admin plane                                                         *)
(* ------------------------------------------------------------------ *)

let uptime_ns t = int_of_float ((Unix.gettimeofday () -. t.started) *. 1e9)

let extra_gauges t =
  let in_flight =
    Mutex.lock t.lock;
    let n = t.in_flight in
    Mutex.unlock t.lock;
    n
  in
  [ ("serve.uptime_ns", uptime_ns t); ("serve.in_flight", in_flight) ]
  @ (match Rusage.peak_rss_kb () with
     | Some kb -> [ ("serve.peak_rss_kb", kb) ]
     | None -> [])

let create cfg =
  if cfg.jobs < 1 then failwith "serve: jobs must be at least 1";
  if cfg.queue_limit < 1 then failwith "serve: queue limit must be at least 1";
  if String.equal cfg.socket_path "" then failwith "serve: no socket path";
  let cache, recovery =
    Dda_cache.Durable.create ?path:cfg.cache_path ~fsync:cfg.cache_fsync
      ~config:cfg.analyzer ()
  in
  let access =
    match cfg.access_log with
    | None -> None
    | Some path -> (
        try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
        with Sys_error msg -> failwith ("serve: cannot open access log: " ^ msg))
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg;
      cache;
      pool = Dda_engine.Pool.create ~jobs:cfg.jobs;
      stop_r;
      stop_w;
      lock = Mutex.create ();
      idle = Condition.create ();
      started = Unix.gettimeofday ();
      serving = Atomic.make false;
      access;
      access_lock = Mutex.create ();
      admin = None;
      next_req = 0;
      in_flight = 0;
      conns = [];
      requests = 0;
      shed = 0;
      quarantined = 0;
    }
  in
  t, recovery

let drain t =
  (* Runs inside a signal handler: one write, nothing else. *)
  try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1) with _ -> ()

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(* A failed write means the peer is gone: mark the connection for
   reaping, never kill the server. *)
let respond conn json =
  let line = Json_out.to_string json ^ "\n" in
  Mutex.lock conn.wlock;
  (try
     Dda_cache.Record_log.write_all conn.fd line;
     Metrics.incr m_responses
   with Unix.Unix_error _ | Sys_error _ -> conn.eof <- true);
  Mutex.unlock conn.wlock

let error_response id msg extra =
  Json_out.Obj
    ([ ("id", id); ("ok", Json_out.Bool false) ]
     @ extra
     @ [ ("error", Json_out.Str msg) ])

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* The protocol's numbers are integers: a request that holds any other
   number is refused whole, like one that does not parse. *)
let rec has_float = function
  | Json_out.Float _ -> true
  | Json_out.List items -> List.exists has_float items
  | Json_out.Obj fields -> List.exists (fun (_, v) -> has_float v) fields
  | Json_out.Null | Json_out.Bool _ | Json_out.Int _ | Json_out.Str _
  | Json_out.Raw _ ->
      false

let parse_request line =
  match Json_out.of_string line with
  | Ok req when has_float req -> Error "non-integer numbers are not supported"
  | parsed -> parsed

let request_id req =
  match Json_out.member "id" req with Some v -> v | None -> Json_out.Null

let deadline_cancel ms =
  if ms <= 0 then fun () -> false
  else begin
    let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    fun () -> Unix.gettimeofday () > until
  end

let bool_member name req =
  match Json_out.member name req with
  | Some (Json_out.Bool b) -> b
  | _ -> false

let explain_json (snap : Attrib.snapshot) (stats : Analyzer.stats) =
  Json_out.Obj
    [
      ( "stages",
        Json_out.Obj
          (List.map
             (fun (stage, (s : Attrib.stage_stat)) ->
                ( Attrib.stage_name stage,
                  Json_out.Obj
                    [ ("calls", Json_out.Int s.Attrib.calls);
                      ("ns", Json_out.Int s.Attrib.ns) ] ))
             snap.Attrib.stages) );
      ( "memo",
        Json_out.Obj
          [
            ("gcd_lookups", Json_out.Int stats.Analyzer.memo_lookups_nobounds);
            ("gcd_hits", Json_out.Int stats.Analyzer.memo_hits_nobounds);
            ("full_lookups", Json_out.Int stats.Analyzer.memo_lookups_full);
            ("full_hits", Json_out.Int stats.Analyzer.memo_hits_full);
          ] );
      ("budget_steps", Json_out.Int snap.Attrib.budget_steps);
      ("degraded", Json_out.Bool (stats.Analyzer.degraded_pairs > 0));
    ]

type analyze_outcome = {
  json : (Json_out.t, string * (string * Json_out.t) list) result;
  a_ok : bool;
  a_flags : (string * Json_out.t) list;  (* access-log flags *)
}

let analyze_task t conn req id ~rid ~t0 () =
  let outcome =
    try
      Failpoint.hit "serve.request";
      match Json_out.member "program" req with
      | Some (Json_out.Str src) ->
          let timeout_ms =
            match Json_out.member "timeout_ms" req with
            | Some (Json_out.Int ms) -> ms
            | _ -> t.cfg.request_timeout_ms
          in
          let prog = Parser.parse_program src in
          (* The attribution window also feeds the access log (budget
             steps, degradation), so it is open for every analyze, not
             just explained ones; its cost is a handful of clock reads
             per cascade stage. *)
          let report, snap =
            Attrib.collect (fun () ->
                Analyzer.analyze ~config:t.cfg.analyzer
                  ~cancel:(deadline_cancel timeout_ms)
                  ~cache:(Dda_cache.Durable.cache t.cache)
                  prog)
          in
          let stats = report.Analyzer.stats in
          let want_stats = bool_member "stats" req in
          let want_explain = bool_member "explain" req in
          let degraded = stats.Analyzer.degraded_pairs > 0 in
          {
            json =
              Ok
                (Json_out.Obj
                   ([
                      ("id", id);
                      ("ok", Json_out.Bool true);
                      ("pairs", Json_out.pairs report.Analyzer.pair_reports);
                    ]
                    @ (if want_stats then
                         [ ("stats", Json_out.stats stats) ]
                       else [])
                    @
                    if want_explain then
                      [ ("explain", explain_json snap stats) ]
                    else []));
            a_ok = true;
            a_flags =
              [
                ("degraded", Json_out.Bool degraded);
                ( "memo_hits",
                  Json_out.Int
                    (stats.Analyzer.memo_hits_nobounds
                     + stats.Analyzer.memo_hits_full) );
                ( "memo_lookups",
                  Json_out.Int
                    (stats.Analyzer.memo_lookups_nobounds
                     + stats.Analyzer.memo_lookups_full) );
                ("budget_steps", Json_out.Int snap.Attrib.budget_steps);
              ];
          }
      | _ ->
        { json = Error ("analyze: missing \"program\" string", []);
          a_ok = false; a_flags = [] }
    with
    | Parser.Error (msg, loc) ->
        { json = Error (Format.asprintf "%a: syntax error: %s" Loc.pp loc msg, []);
          a_ok = false; a_flags = [] }
    | Lexer.Error (msg, loc) ->
        { json = Error (Format.asprintf "%a: lexical error: %s" Loc.pp loc msg, []);
          a_ok = false; a_flags = [] }
    | e ->
        (* Poisoned request: quarantine it — answer with the failure,
           keep the worker. *)
        Mutex.lock t.lock;
        t.quarantined <- t.quarantined + 1;
        Mutex.unlock t.lock;
        Metrics.incr m_quarantined;
        { json =
            Error
              ( Printexc.to_string e,
                [ ("quarantined", Json_out.Bool true) ] );
          a_ok = false;
          a_flags = [ ("quarantined", Json_out.Bool true) ] }
  in
  (* Log before responding: a client that waits for each answer before
     sending its next request then finds the access log in request
     order, as it does for the ops answered on the reader thread. *)
  finish_request t ~req:rid ~op:"analyze" ~ok:outcome.a_ok ~t0
    ~flags:outcome.a_flags;
  (match outcome.json with
   | Ok json -> respond conn json
   | Error (msg, extra) -> respond conn (error_response id msg extra));
  Mutex.lock t.lock;
  t.in_flight <- t.in_flight - 1;
  conn.pending <- conn.pending - 1;
  if t.in_flight = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock

let status_json t =
  let gcd_entries, full_entries = Dda_cache.Durable.table_sizes t.cache in
  Mutex.lock t.lock;
  let requests = t.requests
  and in_flight = t.in_flight
  and shed = t.shed
  and quarantined = t.quarantined in
  Mutex.unlock t.lock;
  Json_out.Obj
    [
      ("ok", Json_out.Bool true);
      ( "server",
        Json_out.Obj
          ([
             ("jobs", Json_out.Int t.cfg.jobs);
             ("queue_limit", Json_out.Int t.cfg.queue_limit);
             ("requests", Json_out.Int requests);
             ("in_flight", Json_out.Int in_flight);
             ("shed", Json_out.Int shed);
             ("quarantined", Json_out.Int quarantined);
             ("uptime_ns", Json_out.Int (uptime_ns t));
           ]
           @ (match Rusage.peak_rss_kb () with
              | Some kb -> [ ("peak_rss_kb", Json_out.Int kb) ]
              | None -> [])
           @ [
               ( "cache",
                 Json_out.Obj
                   [
                     ( "path",
                       match Dda_cache.Durable.store_path t.cache with
                       | Some p -> Json_out.Str p
                       | None -> Json_out.Null );
                     ("gcd_entries", Json_out.Int gcd_entries);
                     ("full_entries", Json_out.Int full_entries);
                     ("records", Json_out.Int (gcd_entries + full_entries));
                     ( "appends",
                       Json_out.Int (Dda_cache.Durable.store_appends t.cache) );
                   ] );
             ]) );
    ]

let handle_line t conn line =
  Metrics.incr m_requests;
  let t0 = now_ns () in
  Mutex.lock t.lock;
  t.requests <- t.requests + 1;
  t.next_req <- t.next_req + 1;
  let rid = t.next_req in
  Mutex.unlock t.lock;
  let finish = finish_request t ~req:rid ~t0 in
  match parse_request line with
  | Error msg ->
      respond conn (error_response Json_out.Null ("bad request: " ^ msg) []);
      finish ~op:"invalid" ~ok:false ~flags:[]
  | Ok req -> (
      let id = request_id req in
      match Json_out.member "op" req with
      | Some (Json_out.Str "ping") ->
          respond conn
            (Json_out.Obj
               [ ("id", id); ("ok", Json_out.Bool true); ("pong", Json_out.Bool true) ]);
          finish ~op:"ping" ~ok:true ~flags:[]
      | Some (Json_out.Str "status") ->
          respond conn (status_json t);
          finish ~op:"status" ~ok:true ~flags:[]
      | Some (Json_out.Str "analyze") ->
          (* Shed before queueing: the queue is bounded by refusal, not
             by blocking the accept loop. *)
          Mutex.lock t.lock;
          let depth = t.in_flight in
          let accept = depth < t.cfg.queue_limit in
          if accept then begin
            t.in_flight <- t.in_flight + 1;
            conn.pending <- conn.pending + 1
          end
          else t.shed <- t.shed + 1;
          Mutex.unlock t.lock;
          Metrics.observe m_queue_depth depth;
          if accept then
            ignore
              (Dda_engine.Pool.submit t.pool
                 (analyze_task t conn req id ~rid ~t0))
          else begin
            Metrics.incr m_shed;
            respond conn
              (error_response id
                 (Printf.sprintf
                    "server overloaded: %d request(s) outstanding (limit %d)"
                    depth t.cfg.queue_limit)
                 [ ("shed", Json_out.Bool true) ]);
            finish ~op:"analyze" ~ok:false
              ~flags:[ ("shed", Json_out.Bool true) ]
          end
      | Some (Json_out.Str op) ->
          respond conn (error_response id ("unknown op: " ^ op) []);
          finish ~op:"invalid" ~ok:false ~flags:[]
      | _ ->
          respond conn (error_response id "missing \"op\"" []);
          finish ~op:"invalid" ~ok:false ~flags:[])

(* ------------------------------------------------------------------ *)
(* The accept/read loop                                                *)
(* ------------------------------------------------------------------ *)

let drain_lines t conn =
  let contents = Buffer.contents conn.rbuf in
  let n = String.length contents in
  let start = ref 0 in
  (try
     while !start < n do
       let nl = String.index_from contents !start '\n' in
       let line = String.sub contents !start (nl - !start) in
       start := nl + 1;
       if not (String.equal (String.trim line) "") then handle_line t conn line
     done
   with Not_found -> ());
  if !start > 0 then begin
    Buffer.clear conn.rbuf;
    Buffer.add_substring conn.rbuf contents !start (n - !start)
  end

let read_conn t conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.eof <- true
  | n ->
      Buffer.add_subbytes conn.rbuf chunk 0 n;
      drain_lines t conn
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> conn.eof <- true

let rec select_intr r timeout =
  try Unix.select r [] [] timeout
  with Unix.Unix_error (EINTR, _, _) -> select_intr r timeout

let admin_routes t =
  [
    ( "/metrics",
      fun () ->
        Admin.ok_text
          (Expo.to_string ~extra_gauges:(extra_gauges t) (Metrics.snapshot ()))
    );
    ("/healthz", fun () -> Admin.ok_text "ok\n");
    ( "/readyz",
      fun () ->
        if not (Atomic.get t.serving) then Admin.unavailable "draining\n"
        else begin
          Mutex.lock t.lock;
          let headroom = t.in_flight < t.cfg.queue_limit in
          Mutex.unlock t.lock;
          if headroom then Admin.ok_text "ready\n"
          else Admin.unavailable "saturated\n"
        end );
    ("/status", fun () -> Admin.ok_json (Json_out.to_string (status_json t)));
    ( "/tracez",
      fun () ->
        (* Drain: a scrape empties the ring, so consecutive scrapes
           hand out disjoint event windows. *)
        let body = Trace.to_chrome_string () in
        Trace.clear ();
        Admin.ok_json body );
  ]

let admin_port t = Option.map Admin.port t.admin

let run t =
  let cfg = t.cfg in
  (ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) : unit);
  (* A predecessor killed with -9 leaves its socket file behind; a
     crash-safe daemon must start over it. *)
  if Sys.file_exists cfg.socket_path then (
    match (Unix.stat cfg.socket_path).st_kind with
    | Unix.S_SOCK -> Unix.unlink cfg.socket_path
    | _ -> failwith (Printf.sprintf "serve: %s exists and is not a socket" cfg.socket_path));
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  Log.info "serve: listening on %s (%d worker(s), queue limit %d)"
    cfg.socket_path cfg.jobs cfg.queue_limit;
  Atomic.set t.serving true;
  (match cfg.admin_port with
   | None -> ()
   | Some port ->
     let admin = Admin.create ~port ~routes:(admin_routes t) in
     Admin.start admin;
     t.admin <- Some admin;
     Log.info "serve: admin listening on 127.0.0.1:%d" (Admin.port admin));
  let draining = ref false in
  while not !draining do
    (* Reap connections whose peer left and whose workers finished. *)
    Mutex.lock t.lock;
    let live, dead = List.partition (fun c -> not (c.eof && c.pending = 0)) t.conns in
    t.conns <- live;
    Mutex.unlock t.lock;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) dead;
    let readable =
      t.stop_r :: listen_fd
      :: List.filter_map (fun c -> if c.eof then None else Some c.fd) live
    in
    let ready, _, _ = select_intr readable 0.5 in
    if List.mem t.stop_r ready then draining := true
    else begin
      if List.mem listen_fd ready then begin
        let fd, _ = Unix.accept ~cloexec:true listen_fd in
        let conn =
          { fd; rbuf = Buffer.create 256; wlock = Mutex.create ();
            pending = 0; eof = false }
        in
        Mutex.lock t.lock;
        t.conns <- conn :: t.conns;
        Mutex.unlock t.lock
      end;
      List.iter
        (fun c -> if (not c.eof) && List.mem c.fd ready then read_conn t c)
        live
    end
  done;
  (* Graceful drain: no new intake, finish in-flight, make the cache
     durable, then release everything and let the caller exit 0. *)
  Log.info "serve: draining";
  Atomic.set t.serving false;
  Mutex.lock t.lock;
  while t.in_flight > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock;
  Dda_engine.Pool.shutdown t.pool;
  Dda_cache.Durable.close t.cache;
  (* The admin plane outlives intake (a scrape during drain still
     answers, with /readyz at 503) and dies before the process exits. *)
  (match t.admin with Some a -> Admin.stop a | None -> ());
  t.admin <- None;
  (match t.access with
   | Some oc -> (try close_out oc with Sys_error _ -> ())
   | None -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  Unix.close listen_fd;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.close t.stop_r;
  Unix.close t.stop_w;
  Log.info "serve: drained (%d request(s) served, %d shed, %d quarantined)"
    t.requests t.shed t.quarantined
