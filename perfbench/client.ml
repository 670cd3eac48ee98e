(* A [ddtest serve --jobs 1] daemon under test, and one closed-loop
   client connection to it. *)

let now = Unix.gettimeofday

type daemon = { pid : int; socket : string }

(* Every daemon this process started and has not yet reaped: killed at
   exit, so a failing run never leaves one behind. *)
let live : daemon list ref = ref []

let reap d =
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap d))
        !live)

(* The daemon logs beside its socket. The store is written without
   fsync: the benchmark times the analyzer's write path, not the
   host disk's flush latency. *)
let spawn ~exe ~socket ~store ?access_log () =
  let args =
    [ exe; "serve"; "--socket"; socket; "--cache"; store; "--jobs"; "1";
      "--no-cache-fsync" ]
    @ match access_log with Some f -> [ "--access-log"; f ] | None -> []
  in
  let log =
    Unix.openfile (socket ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  d

(* Graceful drain: SIGTERM, then wait for a clean exit. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap d with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "daemon on %s did not exit cleanly" d.socket)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* unread bytes are buf[pos, len) *)
  mutable len : int;
  line : Buffer.t;
}

(* Connect, retrying while the daemon is still starting up. *)
let connect ?(timeout = 60.) d =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
        { fd; buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
         | 0, _ -> ()
         | _ ->
             live := List.filter (fun x -> x.pid <> d.pid) !live;
             failwith ("daemon on " ^ d.socket ^ " exited during start-up"));
        if now () > deadline then failwith ("daemon on " ^ d.socket ^ " never listened");
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let close c = Unix.close c.fd

let rec write_all fd b off n =
  if n > 0 then begin
    let k = Unix.write fd b off n in
    write_all fd b (off + k) (n - k)
  end

(* One request line out, one response line back. *)
let call c request =
  let b = Bytes.unsafe_of_string (request ^ "\n") in
  write_all c.fd b 0 (Bytes.length b);
  Buffer.clear c.line;
  let rec fill () =
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some nl when nl < c.len ->
        Buffer.add_subbytes c.line c.buf c.pos (nl - c.pos);
        c.pos <- nl + 1
    | _ ->
        Buffer.add_subbytes c.line c.buf c.pos (c.len - c.pos);
        c.pos <- 0;
        c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
        if c.len = 0 then failwith "daemon closed the connection";
        fill ()
  in
  fill ();
  Buffer.contents c.line

let ping c = ignore (call c {|{"op":"ping"}|})

(* The [server] object of a status answer. *)
let status c =
  match Dda_core.Json_out.of_string (call c {|{"op":"status"}|}) with
  | Ok j -> (
      match Dda_core.Json_out.member "server" j with
      | Some s -> s
      | None -> failwith "status answer without a server object")
  | Error e -> failwith ("unparseable status answer: " ^ e)

let int_at path j =
  let rec go j = function
    | [] -> ( match j with Dda_core.Json_out.Int n -> n | _ -> 0)
    | k :: rest -> (
        match Dda_core.Json_out.member k j with Some v -> go v rest | None -> 0)
  in
  go j path
