(* The traced run's per-layer ledger: wall time and counts charged by
   the benchmark around calls into each layer's public functions. *)

open Dda_lang
open Dda_core

type t = (string, float ref) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) name v =
  match Hashtbl.find_opt t name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t name (ref v)

let get (t : t) name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0.
let now = Unix.gettimeofday

(* Run [f], charging its wall time in microseconds to [name]. *)
let time t name f =
  let t0 = now () in
  let r = f () in
  add t name ((now () -. t0) *. 1e6);
  r

let stage_names = List.map Dda_obs.Attrib.stage_name Dda_obs.Attrib.all_stages
let build_layers = [ "core.build_problem.us"; "core.canonical.us"; "core.problem.key_us" ]

(* Replay the analyzer's per-pair keying work — problem build,
   canonical reduction, key — exactly as [Analyzer.analyze_sites] does
   it under the default (improved) memo scheme, timing each step. The
   replay is extra work: callers keep it out of their wall time. *)
let replay_keys t pairs =
  List.iter
    (fun ((s1 : Affine.site), (s2 : Affine.site)) ->
      let self = Loc.equal s1.site_loc s2.site_loc in
      match (Affine.constant_subscripts s1, Affine.constant_subscripts s2) with
      | Some c1, Some c2 when List.length c1 = List.length c2 && not self -> ()
      | _ -> (
          match time t "core.build_problem.us" (fun () -> Build_problem.build s1 s2) with
          | None -> ()
          | Some p ->
              let info =
                time t "core.canonical.us" (fun () -> Canonical.reduce ~keep_common:self p)
              in
              time t "core.problem.key_us" (fun () ->
                  ignore
                    (Problem.to_key_scratch ~tag:(if self then 1 else 0)
                       info.Canonical.problem))))
    pairs

(* The analysis half of one item, layer by layer, as
   [Analyzer.analyze] runs it. Returns the report, its sites and
   prepared program, and the wall time of the timed calls (the key
   replay excluded). Stage time lands under [core.<stage>.us] and
   [.calls]; [core.analyzer.pair_other_us] is what [analyze_sites]
   spent outside the stages and the keying rows. *)
let analyze t ?cache ~config prog =
  let prepared = time t "passes.pipeline_us" (fun () -> Dda_passes.Pipeline.run prog) in
  let sites =
    time t "core.affine.extract_us" (fun () ->
        Affine.extract ~symbolic:config.Analyzer.symbolic prepared)
  in
  let pairs =
    time t "core.analyzer.site_pairs_us" (fun () -> Analyzer.site_pairs config sites)
  in
  add t "core.analyzer.pairs" (float_of_int (List.length pairs));
  let keying0 = List.fold_left (fun a n -> a +. get t n) 0. build_layers in
  replay_keys t pairs;
  let keying = List.fold_left (fun a n -> a +. get t n) 0. build_layers -. keying0 in
  add t "trace.replay_us" keying;
  let t0 = now () in
  let report, snap =
    Dda_obs.Attrib.collect (fun () -> Analyzer.analyze_sites ~config ?cache pairs)
  in
  let sites_us = (now () -. t0) *. 1e6 in
  let stage_us = ref 0. in
  List.iter
    (fun (stage, (s : Dda_obs.Attrib.stage_stat)) ->
      let name = "core." ^ Dda_obs.Attrib.stage_name stage in
      let us = float_of_int s.ns /. 1e3 in
      stage_us := !stage_us +. us;
      add t (name ^ ".us") us;
      add t (name ^ ".calls") (float_of_int s.calls))
    snap.Dda_obs.Attrib.stages;
  add t "core.analyzer.pair_other_us" (sites_us -. !stage_us -. keying);
  let st = report.Analyzer.stats in
  add t "memo.full_lookups" (float_of_int st.Analyzer.memo_lookups_full);
  add t "memo.full_hits" (float_of_int st.Analyzer.memo_hits_full);
  add t "memo.gcd_lookups" (float_of_int st.Analyzer.memo_lookups_nobounds);
  add t "memo.gcd_hits" (float_of_int st.Analyzer.memo_hits_nobounds);
  (report, prepared, sites)

(* Sum of the layer rows that partition an item's wall time. *)
let partition =
  [ "lang.parse_us"; "passes.pipeline_us"; "core.affine.extract_us";
    "core.analyzer.site_pairs_us"; "core.analyzer.pair_other_us";
    "analysis.lint.us"; "core.json_out.render_us" ]
  @ build_layers
  @ List.map (fun s -> "core." ^ s ^ ".us") stage_names

let covered t = List.fold_left (fun a n -> a +. get t n) 0. partition
