open Dda_core
open Dda_obs

let magic = "%DDACACHE1\n"

(* Both memo tables share one file, so each record says which table it
   belongs to. The payload is the Marshal image of this constructor. *)
type entry =
  | Gcd of int array * Gcd_test.outcome
  | Full of int array * Analyzer.outcome

type t = {
  fd : Unix.file_descr;
  s_path : string;
  fsync : bool;
  mutable n_appends : int;
  mutable closed : bool;
}

type recovery = {
  fresh : bool;
  reset : string option;
  records : int;
  dropped_bytes : int;
}

let m_appends = Metrics.counter "cache.store.appends"
let m_replayed = Metrics.counter "cache.store.replayed"
let m_dropped = Metrics.counter "cache.store.dropped_bytes"
let m_resets = Metrics.counter "cache.store.resets"

let fingerprint config =
  Digest.string
    (Marshal.to_string (Analyzer.memo_format_version, config) [])

let do_fsync fd =
  Failpoint.hit "cache.flush";
  Unix.fsync fd

let describe : Record_log.bad_header -> string = function
  | Short_header -> "truncated header"
  | Bad_magic -> "bad magic (not a dda cache file)"
  | Bad_fingerprint ->
    "fingerprint mismatch (written by a different analyzer version or \
     configuration)"

(* Replay every intact record into the callbacks. A payload that does
   not unmarshal ends the scan as corrupt, like a failed digest. *)
let read_entries ~path ~fingerprint ~gcd ~full =
  Record_log.read ~magic ~fingerprint path (fun payload ->
      match (Marshal.from_string payload 0 : entry) with
      | Gcd (key, v) -> gcd key v; true
      | Full (key, v) -> full key v; true
      | exception _ -> false)

let open_store ?(fsync = true) ~path ~config ~gcd ~full () =
  Failpoint.hit "cache.open";
  let fingerprint = fingerprint config in
  let io_fail what exn =
    failwith
      (Printf.sprintf "cache %s: cannot %s: %s" path what
         (match exn with
          | Unix.Unix_error (e, _, _) -> Unix.error_message e
          | Sys_error m -> m
          | e -> Printexc.to_string e))
  in
  let make fd = { fd; s_path = path; fsync; n_appends = 0; closed = false } in
  let cold reset =
    let fd =
      try Record_log.create ~fsync ~magic ~fingerprint path
      with e -> io_fail "create" e
    in
    (make fd, { fresh = true; reset; records = 0; dropped_bytes = 0 })
  in
  if not (Sys.file_exists path) then cold None
  else
    match
      try read_entries ~path ~fingerprint ~gcd ~full
      with Sys_error _ as e -> io_fail "read" e
    with
    | Error bad ->
        (* The file is unusable as a whole: preserve it for inspection
           and start cold. Never a wrong verdict, only recomputation. *)
        let reason = describe bad in
        let rejected = path ^ ".rejected" in
        (try Sys.rename path rejected with e -> io_fail "quarantine" e);
        Log.warn "cache %s: %s; moved to %s and starting cold" path reason
          rejected;
        Metrics.incr m_resets;
        cold (Some reason)
    | Ok scan ->
        (* Torn or corrupt alike: cache entries are independent, so the
           intact prefix is sound and everything behind it goes. *)
        let dropped = scan.file_len - scan.good_end in
        if dropped > 0 then begin
          Log.warn
            "cache %s: dropping %d damaged trailing byte(s) after %d intact \
             record(s)"
            path dropped scan.records;
          (try Record_log.truncate path scan with e -> io_fail "truncate" e)
        end;
        Metrics.add m_replayed scan.records;
        Metrics.add m_dropped dropped;
        let fd =
          try Record_log.open_append path with e -> io_fail "append to" e
        in
        ( make fd,
          { fresh = false; reset = None; records = scan.records;
            dropped_bytes = dropped } )

let hit_append () = Failpoint.hit "cache.append"
let hit_append_mid () = Failpoint.hit "cache.append.mid"

let append t entry =
  Record_log.append ~before:hit_append ~mid:hit_append_mid ~fsync:false t.fd
    (Marshal.to_string entry []);
  t.n_appends <- t.n_appends + 1;
  Metrics.incr m_appends;
  if t.fsync then do_fsync t.fd

let append_gcd t key v = append t (Gcd (key, v))
let append_full t key v = append t (Full (key, v))
let flush t = if not t.closed then do_fsync t.fd

let close t =
  if not t.closed then begin
    do_fsync t.fd;
    t.closed <- true;
    Unix.close t.fd
  end

let path t = t.s_path
let appends t = t.n_appends

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

type compaction = {
  before_records : int;
  after_records : int;
  before_bytes : int;
  after_bytes : int;
  damaged_bytes : int;
}

let m_compactions = Metrics.counter "cache.store.compactions"

(* Racing domains each append the key they both computed, and every
   process lifetime replays old records while appending only new ones —
   an append-only file only ever grows. Compaction rewrites it to one
   record per key (the last binding wins, exactly what replay would
   keep), atomically: the survivors go to a fresh [path.compact] file
   with the same magic and fingerprint, which then renames over the
   original. A crash at any point leaves either the old file or the
   complete new one, never a mix.

   Unlike [open_store], a header mismatch here raises instead of
   quarantining: compaction is an explicit administrative action on a
   file the operator believes is valid, so refusing loudly (with the
   file untouched) beats silently discarding it. A damaged suffix is
   dropped, as replay would drop it. *)
let compact ?(fsync = true) ~path ~config () =
  let fingerprint = fingerprint config in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("cache " ^ path ^ ": " ^ m)) fmt in
  let gcd = Memo_table.create () and full = Memo_table.create () in
  let scan =
    match
      read_entries ~path ~fingerprint ~gcd:(Memo_table.add gcd)
        ~full:(Memo_table.add full)
    with
    | Ok scan -> scan
    | Error bad -> fail "%s" (describe bad)
    | exception Sys_error m -> fail "cannot read: %s" m
  in
  let tmp = path ^ ".compact" in
  let fd =
    try Record_log.create ~fsync:false ~magic ~fingerprint tmp
    with Unix.Unix_error (e, _, _) ->
      (try Sys.remove tmp with _ -> ());
      fail "cannot create %s: %s" tmp (Unix.error_message e)
  in
  let write entry =
    Record_log.append ~before:ignore ~mid:ignore ~fsync:false fd
      (Marshal.to_string entry [])
  in
  (match
     Memo_table.iter (fun k v -> write (Gcd (k, v))) gcd;
     Memo_table.iter (fun k v -> write (Full (k, v))) full;
     if fsync then Unix.fsync fd;
     Unix.close fd
   with
   | () -> ()
   | exception e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  (try Sys.rename tmp path
   with Sys_error m ->
     (try Sys.remove tmp with _ -> ());
     fail "cannot rename %s into place: %s" tmp m);
  Metrics.incr m_compactions;
  {
    before_records = scan.records;
    after_records = Memo_table.length gcd + Memo_table.length full;
    before_bytes = scan.file_len;
    after_bytes = (Unix.stat path).Unix.st_size;
    damaged_bytes = scan.file_len - scan.good_end;
  }
