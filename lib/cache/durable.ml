open Dda_core

(* The in-memory half is the analyzer's live-shared table pair; the
   append-only store — inherently serial — keeps its own mutex. *)
type t = {
  shared : Analyzer.shared;
  store : Store.t option;
  lock : Mutex.t;  (* serializes store appends and lifecycle only *)
  cache : Analyzer.cache;
}

(* A miss is published to the table first, then appended under the
   store lock. On a race both domains append the key; both records
   replay to the same state. A racing domain may hit on the table entry
   while the append is still in flight — the value is deterministic
   either way, and a crash in that window just means the key is
   recomputed next run. *)
let store_cache shared lock store =
  let append app = Some (fun key v -> Mutex.protect lock (fun () -> app store key v)) in
  {
    (Analyzer.shared_cache shared) with
    find_or_add_gcd =
      Sharded_table.find_or_add ?on_miss:(append Store.append_gcd)
        shared.Analyzer.sh_gcd;
    find_or_add_full =
      Sharded_table.find_or_add ?on_miss:(append Store.append_full)
        shared.Analyzer.sh_full;
    cache_flush = (fun () -> Mutex.protect lock (fun () -> Store.flush store));
  }

let create ?path ?(fsync = true) ~config () =
  let shared = Analyzer.create_shared () in
  let lock = Mutex.create () in
  match path with
  | None ->
    ( { shared; store = None; lock; cache = Analyzer.shared_cache shared },
      None )
  | Some path ->
    let store, recovery =
      Store.open_store ~fsync ~path ~config
        ~gcd:(Sharded_table.add shared.Analyzer.sh_gcd)
        ~full:(Sharded_table.add shared.Analyzer.sh_full) ()
    in
    ( { shared; store = Some store; lock;
        cache = store_cache shared lock store },
      Some recovery )

let cache t = t.cache

let table_sizes t =
  ( Sharded_table.length t.shared.Analyzer.sh_gcd,
    Sharded_table.length t.shared.Analyzer.sh_full )

let store_path t = Option.map Store.path t.store
let store_appends t = match t.store with None -> 0 | Some s -> Store.appends s
let close t = Mutex.protect t.lock (fun () -> Option.iter Store.close t.store)
