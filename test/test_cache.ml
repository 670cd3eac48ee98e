(* The record log under the durable memo store and the stream
   journal: one crash suite for its framing (truncation at every byte
   offset of the final record, a flipped byte in each field of a
   middle record, bad headers). Then the store's policy on top of it:
   append/replay round-trips, the cache-integrity invariant (digest +
   fingerprint + version gate every served record), dropping a damaged
   suffix, quarantine of fingerprint-mismatched files, compaction, and
   warm-restart equivalence of whole analyzer runs through the durable
   cache. *)

open Dda_lang
open Dda_core
open Dda_cache

let temp_path () =
  let p = Filename.temp_file "ddcache" ".bin" in
  Sys.remove p;
  p

let cleanup p =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ p; p ^ ".rejected" ]

let with_path f =
  let p = temp_path () in
  Fun.protect ~finally:(fun () -> cleanup p) (fun () -> f p)

let config = Analyzer.default_config

(* Collecting loaders for [Store.open_store]. *)
let collectors () =
  let gcds = ref [] and fulls = ref [] in
  let gcd k v = gcds := (k, v) :: !gcds in
  let full k v = fulls := (k, v) :: !fulls in
  (gcds, fulls, gcd, full)

let open_collect ?fsync ~path ?(config = config) () =
  let gcds, fulls, gcd, full = collectors () in
  let s, r = Store.open_store ?fsync ~path ~config ~gcd ~full () in
  (s, r, gcds, fulls)

let key l = Array.of_list l

let some_gcd =
  Gcd_test.Independent
    {
      Cert.multipliers = [| Dda_numeric.Zint.of_int 1 |];
      modulus = Dda_numeric.Zint.of_int 2;
    }

let other_gcd =
  Gcd_test.Independent
    {
      Cert.multipliers = [| Dda_numeric.Zint.of_int 3 |];
      modulus = Dda_numeric.Zint.of_int 5;
    }

let some_full = Analyzer.Assumed_dependent

let file_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* The record log                                                      *)
(* ------------------------------------------------------------------ *)

let log_magic = "%TESTLOG01\n"
let log_fp = Digest.string "test fingerprint"

(* Three records of distinct lengths; the middle one is long enough
   that flipping the low bit of its length stays inside the file. *)
let log_payloads = [ "first"; String.make 300 'm'; "third record" ]

let write_log path payloads =
  let fd = Record_log.create ~fsync:false ~magic:log_magic ~fingerprint:log_fp path in
  List.iter
    (Record_log.append ~before:ignore ~mid:ignore ~fsync:false fd)
    payloads;
  Unix.close fd

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_log ?(fingerprint = log_fp) ?(deliver = fun _ -> true) path =
  let got = ref [] in
  let r =
    Record_log.read ~magic:log_magic ~fingerprint path (fun p ->
        got := p :: !got;
        deliver p)
  in
  match r with
  | Ok scan -> (scan, List.rev !got)
  | Error _ -> Alcotest.fail "unexpected header rejection"

let damage_name = function
  | None -> "none"
  | Some Record_log.Torn -> "torn"
  | Some Record_log.Corrupt -> "corrupt"

(* Record start offsets, from the framing spelled out independently
   of the implementation: a 27-byte header, then per record a 4-byte
   big-endian length, a 16-byte digest and the payload. *)
let record_offsets path =
  let s = file_contents path in
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else go (off + 4 + 16 + Int32.to_int (String.get_int32_be s off)) (off :: acc)
  in
  (go 27 [], String.length s)

let test_log_roundtrip () =
  with_path (fun path ->
      write_log path log_payloads;
      let scan, got = read_log path in
      Alcotest.(check (list string)) "payloads in order" log_payloads got;
      Alcotest.(check int) "records" 3 scan.Record_log.records;
      Alcotest.(check int) "good_end is the file length"
        scan.Record_log.file_len scan.Record_log.good_end;
      Alcotest.(check string) "no damage" "none"
        (damage_name scan.Record_log.damage))

(* Truncating anywhere inside the final record — frame and payload
   alike — is a torn tail of exactly the cut-off bytes behind the
   intact prefix; truncation then leaves a clean log. *)
let test_log_torn_every_offset () =
  with_path (fun path ->
      write_log path log_payloads;
      let original = file_contents path in
      let offsets, total = record_offsets path in
      Alcotest.(check int) "3 records framed" 3 (List.length offsets);
      let last_start = List.nth offsets 2 in
      for cut = last_start + 1 to total - 1 do
        write_file path (String.sub original 0 cut);
        let scan, got = read_log path in
        if scan.Record_log.damage <> Some Record_log.Torn then
          Alcotest.failf "cut at %d: damage %s, want torn" cut
            (damage_name scan.Record_log.damage);
        if scan.Record_log.file_len - scan.Record_log.good_end <> cut - last_start
        then
          Alcotest.failf "cut at %d: %d torn bytes, want %d" cut
            (scan.Record_log.file_len - scan.Record_log.good_end)
            (cut - last_start);
        Alcotest.(check (list string)) "intact prefix delivered"
          [ List.nth log_payloads 0; List.nth log_payloads 1 ] got;
        Record_log.truncate path scan;
        let scan2, _ = read_log path in
        if scan2.Record_log.damage <> None || scan2.Record_log.records <> 2 then
          Alcotest.failf "cut at %d: not clean after truncation" cut
      done)

(* One flipped byte in a middle record: the digest catches a payload
   or digest flip, and a length flip that stays inside the file; a
   length pointing past end of file cannot be told from a torn tail.
   Either way only the first record is delivered. *)
let test_log_flipped_byte () =
  with_path (fun path ->
      write_log path log_payloads;
      let original = file_contents path in
      let offsets, _ = record_offsets path in
      let mid = List.nth offsets 1 in
      List.iter
        (fun (what, pos, mask, want) ->
          let b = Bytes.of_string original in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
          write_file path (Bytes.to_string b);
          let scan, got = read_log path in
          Alcotest.(check string) what want (damage_name scan.Record_log.damage);
          Alcotest.(check int) (what ^ ": prefix ends at the record") mid
            scan.Record_log.good_end;
          Alcotest.(check (list string)) (what ^ ": only record 0")
            [ List.hd log_payloads ] got)
        [
          ("payload byte", mid + 20 + 7, 0xFF, "corrupt");
          ("digest byte", mid + 4 + 3, 0xFF, "corrupt");
          ("length low bit", mid + 3, 0x01, "corrupt");
          ("length high byte", mid, 0xFF, "torn");
        ])

let test_log_undecodable_payload () =
  with_path (fun path ->
      write_log path log_payloads;
      let scan, got =
        read_log path ~deliver:(fun p -> not (String.equal p "third record"))
      in
      Alcotest.(check string) "corrupt" "corrupt"
        (damage_name scan.Record_log.damage);
      Alcotest.(check int) "two intact" 2 scan.Record_log.records;
      Alcotest.(check int) "all three seen" 3 (List.length got))

let test_log_bad_header () =
  with_path (fun path ->
      write_log path log_payloads;
      let original = file_contents path in
      let header_error contents ?(fingerprint = log_fp) () =
        write_file path contents;
        match
          Record_log.read ~magic:log_magic ~fingerprint path (fun _ ->
              Alcotest.fail "delivered a record under a bad header")
        with
        | Ok _ -> "ok"
        | Error Record_log.Short_header -> "short"
        | Error Record_log.Bad_magic -> "magic"
        | Error Record_log.Bad_fingerprint -> "fingerprint"
      in
      Alcotest.(check string) "bad magic" "magic"
        (header_error ("X" ^ String.sub original 1 (String.length original - 1)) ());
      Alcotest.(check string) "bad fingerprint" "fingerprint"
        (header_error original ~fingerprint:(Digest.string "other") ());
      Alcotest.(check string) "short header" "short"
        (header_error (String.sub original 0 26) ()))

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_path (fun path ->
      let s, r, _, _ = open_collect ~path () in
      Alcotest.(check bool) "fresh" true r.Store.fresh;
      Store.append_gcd s (key [ 1; 2; 3 ]) some_gcd;
      Store.append_full s (key [ 4; 5 ]) some_full;
      Store.append_gcd s (key [ 6 ]) other_gcd;
      Alcotest.(check int) "appends counted" 3 (Store.appends s);
      Store.close s;
      let s2, r2, gcds, fulls = open_collect ~path () in
      Store.close s2;
      Alcotest.(check bool) "not fresh" false r2.Store.fresh;
      Alcotest.(check int) "3 records replayed" 3 r2.Store.records;
      Alcotest.(check int) "nothing dropped" 0 r2.Store.dropped_bytes;
      Alcotest.(check int) "2 gcd entries" 2 (List.length !gcds);
      Alcotest.(check int) "1 full entry" 1 (List.length !fulls);
      let g = List.assoc (key [ 1; 2; 3 ]) !gcds in
      Alcotest.(check bool) "gcd value survives" true (g = some_gcd))

let test_close_idempotent () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.close s;
      Store.close s)

(* ------------------------------------------------------------------ *)
(* Torn tails and corruption                                           *)
(* ------------------------------------------------------------------ *)

let test_append_after_recovery () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.append_gcd s (key [ 1 ]) some_gcd;
      Store.append_gcd s (key [ 2 ]) some_gcd;
      Store.close s;
      let original = file_contents path in
      (* Tear the second record in half, reopen (truncates), append a
         fresh record: the file must read back as records 1 and 3. *)
      let offsets, total = record_offsets path in
      let cut = (List.nth offsets 1 + total) / 2 in
      let oc = open_out_bin path in
      output_string oc (String.sub original 0 cut);
      close_out oc;
      let s, r, _, _ = open_collect ~path () in
      Alcotest.(check int) "one record recovered" 1 r.Store.records;
      Store.append_full s (key [ 3 ]) some_full;
      Store.close s;
      let s, r2, gcds, fulls = open_collect ~path () in
      Store.close s;
      Alcotest.(check int) "two records after repair+append" 2 r2.Store.records;
      Alcotest.(check int) "no damage" 0 r2.Store.dropped_bytes;
      Alcotest.(check bool) "gcd 1 present" true (List.mem_assoc (key [ 1 ]) !gcds);
      Alcotest.(check bool) "full 3 present" true (List.mem_assoc (key [ 3 ]) !fulls))

let test_midfile_corruption_drops_suffix () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.append_gcd s (key [ 1 ]) some_gcd;
      Store.append_gcd s (key [ 2 ]) some_gcd;
      Store.append_gcd s (key [ 3 ]) some_gcd;
      Store.close s;
      let original = file_contents path in
      let offsets, _ = record_offsets path in
      (* Flip one payload byte of record 1 (offset +20 skips its
         frame): its digest check fails, so it and record 2 behind it
         are dropped; record 0 survives. A wrong byte is never served. *)
      let pos = List.nth offsets 1 + 20 in
      let corrupted = Bytes.of_string original in
      Bytes.set corrupted pos
        (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0xFF));
      let oc = open_out_bin path in
      output_bytes oc corrupted;
      close_out oc;
      let s, r, gcds, _ = open_collect ~path () in
      Store.close s;
      Alcotest.(check int) "only the intact prefix" 1 r.Store.records;
      Alcotest.(check bool) "record 0 survives" true
        (List.mem_assoc (key [ 1 ]) !gcds);
      Alcotest.(check bool) "suffix dropped" true (r.Store.dropped_bytes > 0))

let test_fingerprint_mismatch_quarantines () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.append_gcd s (key [ 1 ]) some_gcd;
      Store.close s;
      let other = { config with Analyzer.symbolic = not config.Analyzer.symbolic } in
      Alcotest.(check bool) "fingerprints differ" false
        (String.equal (Store.fingerprint config) (Store.fingerprint other));
      let s2, r, gcds, _ = open_collect ~path ~config:other () in
      Store.close s2;
      (match r.Store.reset with
       | Some _ -> ()
       | None -> Alcotest.fail "expected a reset");
      Alcotest.(check bool) "cold start" true r.Store.fresh;
      Alcotest.(check int) "nothing served" 0 (List.length !gcds);
      Alcotest.(check bool) "old file preserved for inspection" true
        (Sys.file_exists (path ^ ".rejected")))

let test_alien_file_quarantines () =
  with_path (fun path ->
      let oc = open_out_bin path in
      output_string oc "this is not a cache file at all\n";
      close_out oc;
      let s, r, _, _ = open_collect ~path () in
      Store.close s;
      (match r.Store.reset with
       | Some reason ->
         Alcotest.(check bool) "reason mentions magic" true
           (String.length reason > 0)
       | None -> Alcotest.fail "expected a reset");
      Alcotest.(check bool) ".rejected kept" true
        (Sys.file_exists (path ^ ".rejected")))

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

let test_compact_drops_duplicates () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      (* Duplicate appends, as racing domains would produce, plus a
         superseded binding for [1;2;3]: compaction must keep one
         record per key, the last binding winning. *)
      Store.append_gcd s (key [ 1; 2; 3 ]) some_gcd;
      Store.append_gcd s (key [ 1; 2; 3 ]) some_gcd;
      Store.append_gcd s (key [ 1; 2; 3 ]) other_gcd;
      Store.append_full s (key [ 4; 5 ]) some_full;
      Store.append_full s (key [ 4; 5 ]) some_full;
      Store.append_gcd s (key [ 6 ]) other_gcd;
      Store.close s;
      let before_len = String.length (file_contents path) in
      let c = Store.compact ~path ~config () in
      Alcotest.(check int) "6 records before" 6 c.Store.before_records;
      Alcotest.(check int) "3 records after" 3 c.Store.after_records;
      Alcotest.(check int) "before_bytes" before_len c.Store.before_bytes;
      Alcotest.(check int) "no damage" 0 c.Store.damaged_bytes;
      Alcotest.(check bool) "file shrank" true
        (c.Store.after_bytes < c.Store.before_bytes);
      (* The header survives byte for byte — same magic, same
         fingerprint — so a reopen under the same config replays. *)
      let header_len = String.length "%DDACACHE1\n" + 16 in
      Alcotest.(check string) "header preserved"
        (String.sub (file_contents path) 0 header_len)
        ("%DDACACHE1\n" ^ Store.fingerprint config);
      let s2, r, gcds, fulls = open_collect ~path () in
      Store.close s2;
      Alcotest.(check int) "replay sees 3" 3 r.Store.records;
      Alcotest.(check int) "no drops" 0 r.Store.dropped_bytes;
      Alcotest.(check int) "2 gcd keys" 2 (List.length !gcds);
      Alcotest.(check int) "1 full key" 1 (List.length !fulls);
      Alcotest.(check bool) "last binding won" true
        (List.assoc (key [ 1; 2; 3 ]) !gcds = other_gcd))

let test_compact_drops_torn_tail () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.append_gcd s (key [ 1 ]) some_gcd;
      Store.append_gcd s (key [ 2 ]) other_gcd;
      Store.close s;
      let original = file_contents path in
      let offsets, total = record_offsets path in
      let cut = (List.nth offsets 1 + total) / 2 in
      let oc = open_out_bin path in
      output_string oc (String.sub original 0 cut);
      close_out oc;
      let c = Store.compact ~path ~config () in
      Alcotest.(check int) "only the intact record" 1 c.Store.before_records;
      Alcotest.(check int) "kept as one" 1 c.Store.after_records;
      Alcotest.(check int) "torn bytes reported"
        (cut - List.nth offsets 1)
        c.Store.damaged_bytes;
      let s2, r, gcds, _ = open_collect ~path () in
      Store.close s2;
      Alcotest.(check int) "clean after compaction" 0 r.Store.dropped_bytes;
      Alcotest.(check bool) "record 1 survives" true
        (List.mem_assoc (key [ 1 ]) !gcds))

let test_compact_refuses_mismatch () =
  with_path (fun path ->
      let s, _, _, _ = open_collect ~path () in
      Store.append_gcd s (key [ 1 ]) some_gcd;
      Store.close s;
      let before = file_contents path in
      let other = { config with Analyzer.symbolic = not config.Analyzer.symbolic } in
      (match Store.compact ~path ~config:other () with
       | _ -> Alcotest.fail "expected Failure"
       | exception Failure m ->
         Alcotest.(check bool) "mentions fingerprint" true
           (String.length m > 0));
      (* Unlike open_store's quarantine, the file is left untouched. *)
      Alcotest.(check string) "file untouched" before (file_contents path);
      Alcotest.(check bool) "no .rejected" false
        (Sys.file_exists (path ^ ".rejected"));
      Alcotest.(check bool) "no .compact left behind" false
        (Sys.file_exists (path ^ ".compact")))

let test_compact_missing_file () =
  with_path (fun path ->
      match Store.compact ~path ~config () with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* The durable cache end to end through the analyzer                   *)
(* ------------------------------------------------------------------ *)

let program_src =
  "for i = 1 to 50 do\n\
  \  a[i] = a[i-1] + b[i]\n\
  \  b[i+1] = a[i] + 1\n\
   end\n"

let analyze_with cache =
  Analyzer.analyze ~config ~cache (Parser.parse_program program_src)

let test_warm_restart_equal_reports () =
  with_path (fun path ->
      let d, r = Durable.create ~path ~config () in
      Alcotest.(check bool) "cold open" true (Option.get r).Store.fresh;
      let cold = analyze_with (Durable.cache d) in
      Durable.close d;
      Alcotest.(check bool) "something was appended" true
        (Durable.store_appends d > 0);
      (* Reopen: the tables must come back and a rerun must produce the
         same verdicts purely from cache hits. *)
      let d2, r2 = Durable.create ~path ~config () in
      let rec2 = Option.get r2 in
      Alcotest.(check int) "every append replayed"
        (Durable.store_appends d)
        rec2.Store.records;
      let warm = analyze_with (Durable.cache d2) in
      Alcotest.(check int) "no new appends warm" 0 (Durable.store_appends d2);
      Durable.close d2;
      Alcotest.(check bool) "pair reports identical" true
        (cold.Analyzer.pair_reports = warm.Analyzer.pair_reports);
      let s = warm.Analyzer.stats in
      Alcotest.(check int) "warm run misses nothing"
        s.Analyzer.memo_lookups_full s.Analyzer.memo_hits_full)

let test_memory_durable_agree () =
  with_path (fun path ->
      let d, _ = Durable.create ~path ~config () in
      let durable = analyze_with (Durable.cache d) in
      Durable.close d;
      let memory = analyze_with (Analyzer.memory_cache ()) in
      Alcotest.(check bool) "same pair reports" true
        (durable.Analyzer.pair_reports = memory.Analyzer.pair_reports);
      Alcotest.(check bool) "same stats" true
        (Analyzer.stats_to_list durable.Analyzer.stats
         = Analyzer.stats_to_list memory.Analyzer.stats))

let test_shared_across_domains () =
  with_path (fun path ->
      let d, _ = Durable.create ~path ~config () in
      let cache = Durable.cache d in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () -> analyze_with cache))
      in
      let reports = List.map Domain.join domains in
      Durable.close d;
      let first = List.hd reports in
      List.iter
        (fun r ->
          Alcotest.(check bool) "all domains agree" true
            (r.Analyzer.pair_reports = first.Analyzer.pair_reports))
        reports;
      (* Replay must land every appended record, duplicates included. *)
      let d2, r2 = Durable.create ~path ~config () in
      Durable.close d2;
      Alcotest.(check int) "replay equals appends"
        (Durable.store_appends d)
        (Option.get r2).Store.records)

let test_compute_exception_stores_nothing () =
  with_path (fun path ->
      let d, _ = Durable.create ~path ~config () in
      let cache = Durable.cache d in
      (try
         ignore (cache.Analyzer.find_or_add_gcd (key [ 9; 9 ]) (fun () -> failwith "boom"))
       with Failure _ -> ());
      let g, f = Durable.table_sizes d in
      Alcotest.(check int) "no gcd entry" 0 g;
      Alcotest.(check int) "no full entry" 0 f;
      Alcotest.(check int) "no append" 0 (Durable.store_appends d);
      (* The key is still computable afterwards. *)
      let v, hit = cache.Analyzer.find_or_add_gcd (key [ 9; 9 ]) (fun () -> some_gcd) in
      Durable.close d;
      Alcotest.(check bool) "miss then computed" false hit;
      Alcotest.(check bool) "value delivered" true (v = some_gcd))

let () =
  Alcotest.run "cache"
    [
      ( "record_log",
        [
          Alcotest.test_case "append/read round trip" `Quick test_log_roundtrip;
          Alcotest.test_case "torn at every byte offset of the final record"
            `Quick test_log_torn_every_offset;
          Alcotest.test_case "a flipped byte in each field" `Quick
            test_log_flipped_byte;
          Alcotest.test_case "an undecodable payload is corrupt" `Quick
            test_log_undecodable_payload;
          Alcotest.test_case "bad magic, fingerprint and short header" `Quick
            test_log_bad_header;
        ] );
      ( "store",
        [
          Alcotest.test_case "append/replay round trip" `Quick test_roundtrip;
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "append after recovery" `Quick
            test_append_after_recovery;
          Alcotest.test_case "mid-file corruption drops the suffix" `Quick
            test_midfile_corruption_drops_suffix;
          Alcotest.test_case "fingerprint mismatch quarantines the file" `Quick
            test_fingerprint_mismatch_quarantines;
          Alcotest.test_case "alien file quarantines" `Quick
            test_alien_file_quarantines;
        ] );
      ( "compact",
        [
          Alcotest.test_case "drops duplicates, keeps the last binding" `Quick
            test_compact_drops_duplicates;
          Alcotest.test_case "drops a torn tail like replay would" `Quick
            test_compact_drops_torn_tail;
          Alcotest.test_case "refuses a fingerprint mismatch untouched" `Quick
            test_compact_refuses_mismatch;
          Alcotest.test_case "missing file fails cleanly" `Quick
            test_compact_missing_file;
        ] );
      ( "durable",
        [
          Alcotest.test_case "warm restart serves identical reports" `Quick
            test_warm_restart_equal_reports;
          Alcotest.test_case "durable and memory caches agree" `Quick
            test_memory_durable_agree;
          Alcotest.test_case "shared across four domains" `Quick
            test_shared_across_domains;
          Alcotest.test_case "a raising compute stores nothing" `Quick
            test_compute_exception_stores_nothing;
        ] );
    ]
