(* The analysis daemon, exercised in-process: the server runs in a
   spawned domain on a temp-dir socket while the test plays client over
   plain [Unix] sockets. Covers the protocol (ping/status/analyze),
   determinism of repeated answers, bad-request and poisoned-request
   quarantine (the server survives), bounded-queue load shedding, and
   graceful drain. *)

open Dda_core
open Dda_server

let config = Analyzer.default_config

let temp_dir () =
  let d = Filename.temp_file "ddserve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* Start a server, run [f client_connect server], then drain and
   join. [admin] binds the HTTP admin plane on an ephemeral port;
   [access_log] names a JSONL file inside the temp dir. *)
let with_server ?(jobs = 2) ?(queue_limit = 64) ?cache_name ?(admin = false)
    ?access_log f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let cfg =
        {
          (Server.default_config config) with
          Server.socket_path = socket;
          jobs;
          queue_limit;
          cache_path = Option.map (Filename.concat dir) cache_name;
          admin_port = (if admin then Some 0 else None);
          access_log = Option.map (Filename.concat dir) access_log;
        }
      in
      let server, _ = Server.create cfg in
      let d = Domain.spawn (fun () -> Server.run server) in
      (* Wait for the socket to appear. *)
      let rec wait n =
        if Sys.file_exists socket then ()
        else if n = 0 then Alcotest.fail "server socket never appeared"
        else begin
          Unix.sleepf 0.02;
          wait (n - 1)
        end
      in
      wait 250;
      (* The socket file appears at bind, just before listen: a
         connect in between is refused, so retry that briefly. *)
      let connect () =
        let rec go n =
          let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
          match Unix.connect fd (ADDR_UNIX socket) with
          | () -> fd
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when n > 0 ->
            Unix.close fd;
            Unix.sleepf 0.01;
            go (n - 1)
        in
        let fd = go 100 in
        (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
      in
      Fun.protect
        ~finally:(fun () ->
          Server.drain server;
          Domain.join d)
        (fun () -> f connect server))

(* The admin plane binds after the Unix socket, so poll briefly. *)
let admin_port server =
  let rec wait n =
    match Server.admin_port server with
    | Some p -> p
    | None ->
      if n = 0 then Alcotest.fail "admin port never appeared"
      else begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
  in
  wait 250

(* A one-shot HTTP GET, small enough to not deserve a dependency. *)
let http_get port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
          path
      in
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          slurp ()
      in
      slurp ();
      let raw = Buffer.contents buf in
      let code =
        match String.split_on_char ' ' raw with
        | _ :: c :: _ -> int_of_string c
        | _ -> Alcotest.failf "no status line in %S" raw
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if
            raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        let s = find 0 in
        String.sub raw s (String.length raw - s)
      in
      (code, body))

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let rpc (_, ic, oc) line =
  send oc line;
  input_line ic

let json_field line key =
  match Json_out.of_string line with
  | Ok j -> Json_out.member key j
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let is_ok line = json_field line "ok" = Some (Json_out.Bool true)

let program = "for i = 1 to 20 do\n  a[i] = a[i-1] + 1\nend\n"

let analyze_req ?(id = 1) ?(stats = false) src =
  Json_out.to_string
    (Json_out.Obj
       ([
          ("op", Json_out.Str "analyze");
          ("id", Json_out.Int id);
          ("program", Json_out.Str src);
        ]
        @ if stats then [ ("stats", Json_out.Bool true) ] else []))

let test_ping_status () =
  with_server (fun connect _server ->
      let c = connect () in
      let pong = rpc c {|{"op":"ping"}|} in
      Alcotest.(check bool) "pong ok" true (is_ok pong);
      Alcotest.(check bool) "pong field" true
        (json_field pong "pong" = Some (Json_out.Bool true));
      let status = rpc c {|{"op":"status"}|} in
      Alcotest.(check bool) "status ok" true (is_ok status);
      match json_field status "server" with
      | Some (Json_out.Obj _) -> ()
      | _ -> Alcotest.fail "status has no server object")

let test_analyze_deterministic () =
  with_server (fun connect _server ->
      let c = connect () in
      let r1 = rpc c (analyze_req program) in
      let r2 = rpc c (analyze_req program) in
      Alcotest.(check bool) "ok" true (is_ok r1);
      (* First answer computes, second hits the memo cache — the bytes
         must not know the difference. *)
      Alcotest.(check string) "cold equals warm" r1 r2;
      (* A second connection gets the same bytes too. *)
      let c2 = connect () in
      let r3 = rpc c2 (analyze_req program) in
      Alcotest.(check string) "across connections" r1 r3;
      (* But stats are opt-in and present when asked. *)
      let r4 = rpc c (analyze_req ~stats:true program) in
      Alcotest.(check bool) "stats present" true
        (match json_field r4 "stats" with Some (Json_out.Obj _) -> true | _ -> false);
      Alcotest.(check bool) "no stats by default" true
        (json_field r1 "stats" = None))

let test_bad_requests_quarantined () =
  with_server (fun connect _server ->
      let c = connect () in
      let r = rpc c "this is not json" in
      Alcotest.(check bool) "parse error refused" true
        (json_field r "ok" = Some (Json_out.Bool false));
      let r = rpc c {|{"op":"frobnicate"}|} in
      Alcotest.(check bool) "unknown op refused" true
        (json_field r "ok" = Some (Json_out.Bool false));
      let r = rpc c {|{"op":"analyze","id":7}|} in
      Alcotest.(check bool) "missing program refused" true
        (json_field r "ok" = Some (Json_out.Bool false));
      Alcotest.(check bool) "id echoed" true
        (json_field r "id" = Some (Json_out.Int 7));
      let r = rpc c (analyze_req "for i = oops") in
      Alcotest.(check bool) "syntax error reported" true
        (json_field r "ok" = Some (Json_out.Bool false));
      (* The protocol's numbers are integers: a fraction or an exponent
         anywhere in the line is a bad request, answered without an id. *)
      List.iter
        (fun line ->
           let r = rpc c line in
           Alcotest.(check bool) ("non-integer refused: " ^ line) true
             (json_field r "ok" = Some (Json_out.Bool false));
           Alcotest.(check bool) "no id echoed" true
             (json_field r "id" = Some Json_out.Null);
           match json_field r "error" with
           | Some (Json_out.Str msg) ->
             let prefix = "bad request: non-integer numbers are not supported" in
             Alcotest.(check string) "non-integer message" prefix
               (String.sub msg 0 (min (String.length msg) (String.length prefix)))
           | _ -> Alcotest.failf "no error message in %S" r)
        [
          {|{"op":"ping","id":1.5}|};
          {|{"op":"analyze","id":2,"program":"","timeout_ms":1e3}|};
          {|{"op":"status","x":[0,-2.5E-1]}|};
        ];
      (* After all that abuse, the server still answers. *)
      let r = rpc c (analyze_req program) in
      Alcotest.(check bool) "still serving" true (is_ok r))

let test_poisoned_request_keeps_serving () =
  with_server ~jobs:1 (fun connect _server ->
      Fun.protect ~finally:Failpoint.clear (fun () ->
          Failpoint.set "serve.request=raise@1";
          let c = connect () in
          let r = rpc c (analyze_req program) in
          Alcotest.(check bool) "poisoned request errors" true
            (json_field r "ok" = Some (Json_out.Bool false));
          Alcotest.(check bool) "marked quarantined" true
            (json_field r "quarantined" = Some (Json_out.Bool true));
          (* The worker that died of it is still alive. *)
          let r2 = rpc c (analyze_req program) in
          Alcotest.(check bool) "worker survived" true (is_ok r2)))

let test_load_shedding () =
  with_server ~jobs:1 ~queue_limit:1 (fun connect _server ->
      Fun.protect ~finally:Failpoint.clear (fun () ->
          (* Park the single worker on the first request for a while. *)
          Failpoint.set "serve.request=delay:500@1";
          let c1 = connect () in
          send (let _, _, oc = c1 in oc) (analyze_req ~id:1 program);
          (* Give the accept loop time to enqueue request 1. *)
          Unix.sleepf 0.15;
          let c2 = connect () in
          let r = rpc c2 (analyze_req ~id:2 program) in
          Alcotest.(check bool) "second request shed" true
            (json_field r "shed" = Some (Json_out.Bool true));
          Alcotest.(check bool) "shed is explicit, not ok" true
            (json_field r "ok" = Some (Json_out.Bool false));
          (* The parked request still completes. *)
          let _, ic, _ = c1 in
          Alcotest.(check bool) "first request completes" true
            (is_ok (input_line ic))))

let test_drain_is_graceful () =
  (* with_server drains in its teardown; this test checks the socket
     actually disappears and a second cycle works (resources freed). *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let cfg = { (Server.default_config config) with Server.socket_path = socket } in
      let cycle () =
        let server, _ = Server.create cfg in
        let d = Domain.spawn (fun () -> Server.run server) in
        let rec wait n =
          if (not (Sys.file_exists socket)) && n > 0 then begin
            Unix.sleepf 0.02;
            wait (n - 1)
          end
        in
        wait 250;
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX socket);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        send oc (analyze_req program);
        let r = input_line ic in
        Unix.close fd;
        Server.drain server;
        Domain.join d;
        Alcotest.(check bool) "served before drain" true (is_ok r);
        Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)
      in
      cycle ();
      cycle ())

let test_warm_cache_across_restarts () =
  (* Two servers sharing one cache file, run one after the other: the
     second must answer from the replayed cache with identical bytes. *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let cache = Filename.concat dir "memo.cache" in
      let cfg =
        {
          (Server.default_config config) with
          Server.socket_path = socket;
          cache_path = Some cache;
        }
      in
      let once () =
        let server, recovery = Server.create cfg in
        let d = Domain.spawn (fun () -> Server.run server) in
        let rec wait n =
          if (not (Sys.file_exists socket)) && n > 0 then begin
            Unix.sleepf 0.02;
            wait (n - 1)
          end
        in
        wait 250;
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX socket);
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        send oc (analyze_req program);
        let r = input_line ic in
        Unix.close fd;
        Server.drain server;
        Domain.join d;
        (r, recovery)
      in
      let cold, rec1 = once () in
      let warm, rec2 = once () in
      Alcotest.(check bool) "first start is fresh" true
        (Option.get rec1).Dda_cache.Store.fresh;
      let r2 = Option.get rec2 in
      Alcotest.(check bool) "second start replays" true
        (r2.Dda_cache.Store.records > 0);
      Alcotest.(check int) "no damage" 0 r2.Dda_cache.Store.dropped_bytes;
      Alcotest.(check string) "warm restart byte-identical" cold warm)

(* ------------------------------------------------------------------ *)
(* Telemetry plane                                                     *)
(* ------------------------------------------------------------------ *)

let test_admin_endpoints () =
  with_server ~admin:true (fun connect server ->
      let port = admin_port server in
      let c = connect () in
      Alcotest.(check bool) "analyze ok" true (is_ok (rpc c (analyze_req program)));
      let code, body = http_get port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 code;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let code, body = http_get port "/readyz" in
      Alcotest.(check int) "readyz 200" 200 code;
      Alcotest.(check string) "readyz body" "ready\n" body;
      let code, body = http_get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 code;
      (match Dda_obs.Expo.parse body with
       | Error msg -> Alcotest.failf "metrics not parseable: %s" msg
       | Ok p ->
         let counter name = List.assoc_opt name p.Dda_obs.Expo.p_counters in
         Alcotest.(check bool) "requests counted" true
           (match counter "dda_serve_requests" with
            | Some n -> n >= 1
            | None -> false);
         Alcotest.(check bool) "memo counters exposed" true
           (counter "dda_memo_lookups" <> None);
         Alcotest.(check bool) "per-op latency histogram" true
           (match
              List.assoc_opt "dda_serve_op_analyze_ns"
                p.Dda_obs.Expo.p_histograms
            with
            | Some h -> h.Dda_obs.Expo.p_count >= 1
            | None -> false);
         Alcotest.(check bool) "uptime gauge" true
           (List.assoc_opt "dda_serve_uptime_ns" p.Dda_obs.Expo.p_gauges
            <> None));
      let code, body = http_get port "/status" in
      Alcotest.(check int) "status 200" 200 code;
      (match Json_out.of_string (String.trim body) with
       | Error msg -> Alcotest.failf "status not JSON: %s" msg
       | Ok j -> (
           match Json_out.member "server" j with
           | Some (Json_out.Obj fields) ->
             Alcotest.(check bool) "uptime_ns in status" true
               (List.mem_assoc "uptime_ns" fields);
             Alcotest.(check bool) "peak_rss_kb in status" true
               (List.mem_assoc "peak_rss_kb" fields)
           | _ -> Alcotest.fail "no server object in /status"));
      let code, body = http_get port "/tracez" in
      Alcotest.(check int) "tracez 200" 200 code;
      Alcotest.(check bool) "tracez is a chrome trace" true
        (String.starts_with ~prefix:"{\"traceEvents\":" body);
      let code, _ = http_get port "/no-such-endpoint" in
      Alcotest.(check int) "unknown path is 404" 404 code)

let test_admin_never_load_bearing () =
  with_server ~admin:true (fun connect server ->
      let port = admin_port server in
      (* Abuse the admin plane: wrong method, garbage bytes, a peer
         that connects and leaves. None of it may affect queries. *)
      let code, _ = http_get port "/metrics" in
      Alcotest.(check int) "sane before abuse" 200 code;
      let raw req =
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
        let b = Bytes.of_string req in
        ignore (Unix.write fd b 0 (Bytes.length b));
        Unix.close fd
      in
      raw "POST /metrics HTTP/1.1\r\n\r\n";
      raw "complete garbage\r\n\r\n";
      raw "";  (* connect-and-leave *)
      let c = connect () in
      Alcotest.(check bool) "queries survive admin abuse" true
        (is_ok (rpc c (analyze_req program)));
      let code, _ = http_get port "/metrics" in
      Alcotest.(check int) "admin plane survives too" 200 code)

let test_explain_block () =
  with_server (fun connect _server ->
      let c = connect () in
      let req =
        Json_out.to_string
          (Json_out.Obj
             [
               ("op", Json_out.Str "analyze");
               ("id", Json_out.Int 1);
               ("program", Json_out.Str program);
               ("explain", Json_out.Bool true);
             ])
      in
      let r = rpc c req in
      Alcotest.(check bool) "ok" true (is_ok r);
      (match json_field r "explain" with
       | Some (Json_out.Obj fields) ->
         (* The flow-dependent loop exercises at least the GCD stage;
            every stage key is present either way. *)
         (match List.assoc_opt "stages" fields with
          | Some (Json_out.Obj stages) ->
            List.iter
              (fun s ->
                 Alcotest.(check bool) ("stage " ^ s) true
                   (List.mem_assoc s stages))
              [ "gcd"; "svpc"; "acyclic"; "loop_residue"; "fourier" ];
            (match List.assoc_opt "gcd" stages with
             | Some (Json_out.Obj g) -> (
                 match List.assoc_opt "calls" g with
                 | Some (Json_out.Int n) ->
                   Alcotest.(check bool) "gcd ran" true (n > 0)
                 | _ -> Alcotest.fail "gcd has no calls field")
             | _ -> Alcotest.fail "no gcd stage object")
          | _ -> Alcotest.fail "no stages object");
         Alcotest.(check bool) "memo block" true (List.mem_assoc "memo" fields);
         Alcotest.(check bool) "budget steps" true
           (match List.assoc_opt "budget_steps" fields with
            | Some (Json_out.Int n) -> n > 0
            | _ -> false);
         Alcotest.(check bool) "degraded flag" true
           (List.assoc_opt "degraded" fields = Some (Json_out.Bool false))
       | _ -> Alcotest.fail "no explain block when asked");
      (* Opt-in: the default response carries no explain block (its
         timings vary run to run; default bytes must not). *)
      let plain = rpc c (analyze_req program) in
      Alcotest.(check bool) "absent by default" true
        (json_field plain "explain" = None))

let test_access_log_one_line_per_request () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let log = Filename.concat dir "access.jsonl" in
      let cfg =
        {
          (Server.default_config config) with
          Server.socket_path = socket;
          access_log = Some log;
        }
      in
      let server, _ = Server.create cfg in
      let d = Domain.spawn (fun () -> Server.run server) in
      let rec wait n =
        if (not (Sys.file_exists socket)) && n > 0 then begin
          Unix.sleepf 0.02;
          wait (n - 1)
        end
      in
      wait 250;
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let requests =
        [
          {|{"op":"ping"}|};
          analyze_req program;
          "this is not json";
          {|{"op":"status"}|};
        ]
      in
      List.iter
        (fun r ->
          send oc r;
          ignore (input_line ic))
        requests;
      Unix.close fd;
      (* Drain before reading: every response precedes its log line by
         a hair, and the drain barrier orders all of them. *)
      Server.drain server;
      Domain.join d;
      let lines = ref [] in
      let icl = open_in log in
      (try
         while true do
           lines := input_line icl :: !lines
         done
       with End_of_file -> close_in icl);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per request" (List.length requests)
        (List.length lines);
      let ops =
        List.map
          (fun l ->
            match json_field l "op" with
            | Some (Json_out.Str op) -> op
            | _ -> Alcotest.failf "access line without op: %s" l)
          lines
      in
      Alcotest.(check (list string)) "ops in order"
        [ "ping"; "analyze"; "invalid"; "status" ]
        ops;
      (* Request ids are unique and increasing; the analyze line
         carries its telemetry. *)
      let ids =
        List.map
          (fun l ->
            match json_field l "req" with
            | Some (Json_out.Int i) -> i
            | _ -> Alcotest.failf "access line without req id: %s" l)
          lines
      in
      Alcotest.(check (list int)) "ids are sequential" [ 1; 2; 3; 4 ] ids;
      let analyze_line = List.nth lines 1 in
      Alcotest.(check bool) "latency recorded" true
        (match json_field analyze_line "ns" with
         | Some (Json_out.Int ns) -> ns >= 0
         | _ -> false);
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (json_field analyze_line key <> None))
        [ "degraded"; "memo_hits"; "memo_lookups"; "budget_steps" ])

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and status" `Quick test_ping_status;
          Alcotest.test_case "analyze is deterministic" `Quick
            test_analyze_deterministic;
          Alcotest.test_case "bad requests answered, not fatal" `Quick
            test_bad_requests_quarantined;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "poisoned request is quarantined" `Quick
            test_poisoned_request_keeps_serving;
          Alcotest.test_case "saturated queue sheds explicitly" `Quick
            test_load_shedding;
          Alcotest.test_case "drain is graceful and repeatable" `Quick
            test_drain_is_graceful;
          Alcotest.test_case "warm cache across restarts" `Quick
            test_warm_cache_across_restarts;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "admin endpoints" `Quick test_admin_endpoints;
          Alcotest.test_case "admin plane is never load-bearing" `Quick
            test_admin_never_load_bearing;
          Alcotest.test_case "explain attributes stages" `Quick
            test_explain_block;
          Alcotest.test_case "access log: one line per request" `Quick
            test_access_log_one_line_per_request;
        ] );
    ]
