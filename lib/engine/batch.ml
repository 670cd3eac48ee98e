open Dda_lang
open Dda_core

type item = {
  name : string;
  program : Ast.program;
}

type result = {
  outcomes : Stream.outcome list;
  summary : Stream.summary;
  table_stats : (Memo_table.stats * Memo_table.stats) option;
}

let run ?config ?(share_memo = false) ?verify ?lint ?retries ?backoff_ms
    ?item_timeout_ms ~jobs items =
  let shared = if share_memo then Some (Analyzer.create_shared ()) else None in
  let outcomes, summary =
    Stream.run_programs ?config ?shared ?verify ?lint ?retries ?backoff_ms
      ?item_timeout_ms ~jobs
      (List.map (fun (it : item) -> (it.name, it.program)) items)
  in
  let table_stats =
    Option.map
      (fun sh ->
        (* The shared tables already hold the corpus-wide union; their
           sizes are the distinct-problem counts (racing domains that
           both computed a key still stored it once). Summed per-item
           misses can over-count exactly those races, so replace them. *)
        let gcd_stats, full_stats = Analyzer.shared_table_stats sh in
        summary.Stream.merged.Analyzer.memo_unique_nobounds <- gcd_stats.Memo_table.size;
        summary.Stream.merged.Analyzer.memo_unique_full <- full_stats.Memo_table.size;
        (gcd_stats, full_stats))
      shared
  in
  { outcomes; summary; table_stats }
