open Dda_obs

type response = {
  status : int;
  content_type : string;
  body : string;
}

let ok_text body = { status = 200; content_type = "text/plain; version=0.0.4"; body }
let ok_json body = { status = 200; content_type = "application/json"; body }
let unavailable body = { status = 503; content_type = "text/plain"; body }

type t = {
  listen_fd : Unix.file_descr;
  a_port : int;
  routes : (string * (unit -> response)) list;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable domain : unit Domain.t option;
  mutable stopped : bool;
}

let m_requests = Metrics.counter "admin.requests"
let m_errors = Metrics.counter "admin.errors"

let create ~port ~routes =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let a_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  { listen_fd = fd; a_port; routes; stop_r; stop_w; domain = None;
    stopped = false }

let port t = t.a_port

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Internal Server Error"

let send fd (r : response) =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      r.status (status_text r.status) r.content_type (String.length r.body)
  in
  Dda_cache.Record_log.write_all fd (head ^ r.body)

(* Read up to the end of the request head (we ignore the body — every
   endpoint is a GET). Bounded: a peer that never finishes its head is
   cut off at 8 KiB or at the socket receive timeout. *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        (* String search is fine at this size. *)
        let rec find i =
          if i + 3 >= String.length s then None
          else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                  && s.[i + 3] = '\n'
          then Some (String.sub s 0 i)
          else find (i + 1)
        in
        (match find 0 with None -> go () | some -> some)
  in
  go ()

let handle t fd =
  Metrics.incr m_requests;
  match read_head fd with
  | None -> ()
  | Some head ->
    let request_line =
      match String.index_opt head '\r' with
      | Some i -> String.sub head 0 i
      | None -> head
    in
    let resp =
      match String.split_on_char ' ' request_line with
      | [ "GET"; path; _version ] -> (
          (* Strip any query string: /metrics?x=1 routes as /metrics. *)
          let path =
            match String.index_opt path '?' with
            | Some i -> String.sub path 0 i
            | None -> path
          in
          match List.assoc_opt path t.routes with
          | None ->
            { status = 404; content_type = "text/plain";
              body = "not found\n" }
          | Some h -> (
              try h ()
              with e ->
                Metrics.incr m_errors;
                Log.warn "admin: handler for %s raised: %s" path
                  (Printexc.to_string e);
                { status = 500; content_type = "text/plain";
                  body = "internal error\n" }))
      | _ ->
        { status = 405; content_type = "text/plain";
          body = "only GET is served here\n" }
    in
    send fd resp

let rec select_intr r timeout =
  try Unix.select r [] [] timeout
  with Unix.Unix_error (EINTR, _, _) -> select_intr r timeout

let loop t =
  let stop = ref false in
  while not !stop do
    let ready, _, _ = select_intr [ t.stop_r; t.listen_fd ] 0.5 in
    if List.mem t.stop_r ready then stop := true
    else if List.mem t.listen_fd ready then begin
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        (* Nothing a peer does may escape this domain. *)
        (try Unix.setsockopt_float fd SO_RCVTIMEO 5.0
         with Unix.Unix_error _ -> ());
        (try handle t fd
         with
         | Unix.Unix_error _ | Sys_error _ -> Metrics.incr m_errors
         | e ->
           Metrics.incr m_errors;
           Log.warn "admin: connection raised: %s" (Printexc.to_string e));
        (try Unix.close fd with Unix.Unix_error _ -> ())
    end
  done

let start t = if t.domain = None then t.domain <- Some (Domain.spawn (fun () -> loop t))

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.stop_r; t.stop_w ]
  end
