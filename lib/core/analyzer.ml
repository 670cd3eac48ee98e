open Dda_numeric
open Dda_lang

type memo_mode =
  | Memo_off
  | Memo_simple
  | Memo_improved
  | Memo_symmetric

type config = {
  symbolic : bool;
  memo : memo_mode;
  directions : bool;
  prune : Direction.prune;
  fm_tighten : bool;
  run_pipeline : bool;
  within_nest_only : bool;
  limits : Budget.limits;
}

let default_config =
  {
    symbolic = true;
    memo = Memo_improved;
    directions = true;
    prune = Direction.full_pruning;
    fm_tighten = false;
    run_pipeline = true;
    within_nest_only = true;
    limits = Budget.default_limits;
  }

type outcome =
  | Constant of bool
  | Assumed_dependent
  | Gcd_independent
  | Tested of {
      dependent : bool;
      unknown : bool;
      decided_by : Cascade.test option;
      directions : Direction.dir array list;
      distance : Zint.t array option;
      implicit_bb : bool;
      degraded : Budget.reason option;
          (* the query's budget ran out: [dependent]/[directions] are a
             sound over-approximation, not the exact answer *)
    }

type pair_report = {
  array_name : string;
  loc1 : Loc.t;
  loc2 : Loc.t;
  stmt1 : Loc.t;
  stmt2 : Loc.t;
  role1 : [ `Read | `Write ];
  role2 : [ `Read | `Write ];
  self_pair : bool;
  ncommon : int;
  common_ids : int list;
  enclosing_ids1 : int list;
  enclosing_ids2 : int list;
  outcome : outcome;
}

type dep_kind =
  | Flow
  | Anti
  | Output
  | Input

let dep_kind_name = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let pp_dep_kind fmt k = Format.pp_print_string fmt (dep_kind_name k)

let vector_kind report v =
  (* The leading direction says which reference's instance runs first;
     an all-"=" vector (loop-independent) and a leading "*" (either)
     take the textual order. *)
  let src_role, dst_role =
    match Direction.lead v with
    | Direction.Dlt | Direction.Deq | Direction.Dany -> (report.role1, report.role2)
    | Direction.Dgt -> (report.role2, report.role1)
  in
  match (src_role, dst_role) with
  | `Write, `Read -> Flow
  | `Read, `Write -> Anti
  | `Write, `Write -> Output
  | `Read, `Read -> Input

type stats = {
  mutable pairs : int;
  mutable constant_cases : int;
  mutable gcd_independent : int;
  mutable assumed : int;
  mutable plain_by_test : int array;
  dir_counts : Direction.counts;
  mutable implicit_bb_cases : int;
  mutable degraded_pairs : int;
  mutable independent_pairs : int;
  mutable dependent_pairs : int;
  mutable vectors_reported : int;
  mutable memo_lookups_nobounds : int;
  mutable memo_hits_nobounds : int;
  mutable memo_unique_nobounds : int;
  mutable memo_lookups_full : int;
  mutable memo_hits_full : int;
  mutable memo_unique_full : int;
}

let fresh_stats () =
  {
    pairs = 0;
    constant_cases = 0;
    gcd_independent = 0;
    assumed = 0;
    plain_by_test = Array.make 4 0;
    dir_counts = Direction.fresh_counts ();
    implicit_bb_cases = 0;
    degraded_pairs = 0;
    independent_pairs = 0;
    dependent_pairs = 0;
    vectors_reported = 0;
    memo_lookups_nobounds = 0;
    memo_hits_nobounds = 0;
    memo_unique_nobounds = 0;
    memo_lookups_full = 0;
    memo_hits_full = 0;
    memo_unique_full = 0;
  }

let merge_stats ~into src =
  into.pairs <- into.pairs + src.pairs;
  into.constant_cases <- into.constant_cases + src.constant_cases;
  into.gcd_independent <- into.gcd_independent + src.gcd_independent;
  into.assumed <- into.assumed + src.assumed;
  Array.iteri
    (fun i v -> into.plain_by_test.(i) <- into.plain_by_test.(i) + v)
    src.plain_by_test;
  Direction.merge_counts ~into:into.dir_counts src.dir_counts;
  into.implicit_bb_cases <- into.implicit_bb_cases + src.implicit_bb_cases;
  into.degraded_pairs <- into.degraded_pairs + src.degraded_pairs;
  into.independent_pairs <- into.independent_pairs + src.independent_pairs;
  into.dependent_pairs <- into.dependent_pairs + src.dependent_pairs;
  into.vectors_reported <- into.vectors_reported + src.vectors_reported;
  into.memo_lookups_nobounds <- into.memo_lookups_nobounds + src.memo_lookups_nobounds;
  into.memo_hits_nobounds <- into.memo_hits_nobounds + src.memo_hits_nobounds;
  into.memo_unique_nobounds <- into.memo_unique_nobounds + src.memo_unique_nobounds;
  into.memo_lookups_full <- into.memo_lookups_full + src.memo_lookups_full;
  into.memo_hits_full <- into.memo_hits_full + src.memo_hits_full;
  into.memo_unique_full <- into.memo_unique_full + src.memo_unique_full

(* Flat integer serialization, for the batch journal: every field in a
   fixed order, the two per-test arrays and the direction counts
   flattened in place. *)
let stats_to_list s =
  [ s.pairs; s.constant_cases; s.gcd_independent; s.assumed ]
  @ Array.to_list s.plain_by_test
  @ Array.to_list s.dir_counts.Direction.by_test
  @ Array.to_list s.dir_counts.Direction.indep_by_test
  @ [
      s.implicit_bb_cases;
      s.degraded_pairs;
      s.independent_pairs;
      s.dependent_pairs;
      s.vectors_reported;
      s.memo_lookups_nobounds;
      s.memo_hits_nobounds;
      s.memo_unique_nobounds;
      s.memo_lookups_full;
      s.memo_hits_full;
      s.memo_unique_full;
    ]

let stats_of_list l =
  match l with
  | [
      pairs; constant_cases; gcd_independent; assumed;
      p0; p1; p2; p3;
      d0; d1; d2; d3;
      i0; i1; i2; i3;
      implicit_bb_cases; degraded_pairs; independent_pairs; dependent_pairs;
      vectors_reported;
      memo_lookups_nobounds; memo_hits_nobounds; memo_unique_nobounds;
      memo_lookups_full; memo_hits_full; memo_unique_full;
    ] ->
    let s = fresh_stats () in
    s.pairs <- pairs;
    s.constant_cases <- constant_cases;
    s.gcd_independent <- gcd_independent;
    s.assumed <- assumed;
    s.plain_by_test <- [| p0; p1; p2; p3 |];
    s.dir_counts.Direction.by_test <- [| d0; d1; d2; d3 |];
    s.dir_counts.Direction.indep_by_test <- [| i0; i1; i2; i3 |];
    s.implicit_bb_cases <- implicit_bb_cases;
    s.degraded_pairs <- degraded_pairs;
    s.independent_pairs <- independent_pairs;
    s.dependent_pairs <- dependent_pairs;
    s.vectors_reported <- vectors_reported;
    s.memo_lookups_nobounds <- memo_lookups_nobounds;
    s.memo_hits_nobounds <- memo_hits_nobounds;
    s.memo_unique_nobounds <- memo_unique_nobounds;
    s.memo_lookups_full <- memo_lookups_full;
    s.memo_hits_full <- memo_hits_full;
    s.memo_unique_full <- memo_unique_full;
    Some s
  | _ -> None

type report = {
  pair_reports : pair_report list;
  stats : stats;
}

(* The memoized value: the outcome with direction vectors expressed in
   the canonical (reduced) problem's common levels; each pair reinserts
   its own dropped levels. *)
type memo_value = outcome

(* The pluggable memo backend. The analyzer is a pure query layer over
   this record: every cached lookup in the pipeline goes through these
   functions, so a backend can be a pair of in-process tables (the
   default), a write-through durable store, or a mutex-guarded shared
   table — without the analyzer knowing. Contract: [find_or_add_*] may
   run [compute] outside any lock but must never store a value whose
   computation raised. *)
type cache = {
  find_or_add_gcd :
    int array -> (unit -> Gcd_test.outcome) -> Gcd_test.outcome * bool;
  find_or_add_full : int array -> (unit -> memo_value) -> memo_value * bool;
  probe_full : int array -> memo_value option;
      (* quiet on a miss; a hit passes [find_or_add_full]'s failpoint *)
  cache_sizes : unit -> int * int;  (* (gcd, full) entries *)
  cache_flush : unit -> unit;
      (* push write-through state to stable storage; no-op in memory *)
}

let table_cache gcd_table full_table =
  {
    find_or_add_gcd = Memo_table.find_or_add gcd_table;
    find_or_add_full = Memo_table.find_or_add full_table;
    probe_full = Memo_table.probe full_table;
    cache_sizes =
      (fun () -> (Memo_table.length gcd_table, Memo_table.length full_table));
    cache_flush = (fun () -> ());
  }

let memory_cache () = table_cache (Memo_table.create ()) (Memo_table.create ())

(* Live cross-domain sharing: one pair of lock-striped tables that
   every worker queries during the run, so a repeat landing on a
   different domain is a hit instead of a recomputation that only a
   post-run merge would have deduplicated. *)
type shared = {
  sh_gcd : Gcd_test.outcome Sharded_table.t;
  sh_full : memo_value Sharded_table.t;
}

let create_shared () =
  { sh_gcd = Sharded_table.create (); sh_full = Sharded_table.create () }

let shared_cache sh =
  {
    find_or_add_gcd = Sharded_table.find_or_add sh.sh_gcd;
    find_or_add_full = Sharded_table.find_or_add sh.sh_full;
    probe_full = Sharded_table.probe sh.sh_full;
    cache_sizes =
      (fun () ->
         (Sharded_table.length sh.sh_gcd, Sharded_table.length sh.sh_full));
    cache_flush = (fun () -> ());
  }

(* Wrap a cache so that its sizes are this wrapper's completed
   misses: one item's unique counts over a live-shared cache, whose
   own sizes move with every domain's queries. *)
let counted_cache (c : cache) : cache =
  let gm = ref 0 and fm = ref 0 in
  let count m f k compute =
    let (_, hit) as r = f k compute in
    if not hit then incr m;
    r
  in
  {
    c with
    find_or_add_gcd = (fun k compute -> count gm c.find_or_add_gcd k compute);
    find_or_add_full = (fun k compute -> count fm c.find_or_add_full k compute);
    cache_sizes = (fun () -> (!gm, !fm));
  }

type state = {
  cfg : config;
  stats : stats;
  cache : cache;
  cancel : unit -> bool;
      (* cooperative watchdog (e.g. the batch engine's per-item
         deadline); deliberately outside [config], which is marshaled
         into the durable cache's fingerprint *)
}

let m_queries = Dda_obs.Metrics.counter "analyzer.queries"
let h_budget_steps = Dda_obs.Metrics.histogram "analyzer.budget_steps"

(* Memo lookups and hits are counted here and nowhere else: per call
   in [stats], process-wide in these counters. The backends are pure
   stores. Full-table lookups are jobs-invariant (each pair makes the
   same ones whatever worker runs it). Over a cache shared by several
   workers the gcd table is consulted only on a full-table miss, which
   depends on timing, so gcd lookups and all hits are deterministic
   only with per-item caches or at [--jobs 1]. *)
let m_lookups = Dda_obs.Metrics.counter "memo.lookups"
let m_hits = Dda_obs.Metrics.counter "memo.hits"

(* Compute the outcome for a canonical problem (a cache miss). *)
let compute_inner st budget (p : Problem.t) ~self =
  let s = st.stats in
  let gcd_outcome =
    match st.cfg.memo with
    | Memo_off -> Gcd_test.run_eqs ~budget p
    | Memo_simple | Memo_improved | Memo_symmetric ->
      s.memo_lookups_nobounds <- s.memo_lookups_nobounds + 1;
      Dda_obs.Metrics.incr m_lookups;
      let out, hit =
        st.cache.find_or_add_gcd (Problem.key_without_bounds_scratch p) (fun () ->
            Gcd_test.run_eqs ~budget p)
      in
      if hit then begin
        s.memo_hits_nobounds <- s.memo_hits_nobounds + 1;
        Dda_obs.Metrics.incr m_hits
      end;
      out
  in
  match gcd_outcome with
  | Gcd_test.Independent _ ->
    st.stats.gcd_independent <- st.stats.gcd_independent + 1;
    Gcd_independent
  | Gcd_test.Reduced red0 ->
    let red = Gcd_test.attach_bounds p red0 in
    if st.cfg.directions || self then begin
      (* Self pairs always go through refinement: excluding the
         identity instance needs direction constraints. *)
      (* Unused-level pruning would let a self pair claim cross-
         iteration dependence it never tested; disable it there. *)
      let prune =
        if self then { st.cfg.prune with Direction.unused = false }
        else st.cfg.prune
      in
      let r =
        Direction.refine ~budget ~prune ~fm_tighten:st.cfg.fm_tighten
          ~counts:st.stats.dir_counts ~exclude_all_eq:self p red
      in
      if r.implicit_bb then st.stats.implicit_bb_cases <- st.stats.implicit_bb_cases + 1;
      Tested
        {
          dependent = r.dependent;
          unknown = r.degraded <> None;
          decided_by = None;
          directions = r.vectors;
          distance = r.distance;
          implicit_bb = r.implicit_bb;
          degraded = r.degraded;
        }
    end
    else begin
      let r = Cascade.run ~budget ~fm_tighten:st.cfg.fm_tighten red.Gcd_test.system in
      let i = Cascade.test_index r.decided_by in
      st.stats.plain_by_test.(i) <- st.stats.plain_by_test.(i) + 1;
      let dependent, unknown, degraded =
        match r.verdict with
        | Cascade.Independent _ -> (false, false, None)
        | Cascade.Dependent _ -> (true, false, None)
        | Cascade.Unknown -> (true, true, None)
        | Cascade.Exhausted reason -> (true, true, Some reason)
      in
      Tested
        {
          dependent;
          unknown;
          decided_by = Some r.decided_by;
          directions = [];
          distance = None;
          implicit_bb = false;
          degraded;
        }
    end

(* One histogram sample per executed query (a memo miss), observed on
   both normal return and escape — an exhaustion that outruns the
   cascade still records the steps it burned. *)
let compute st (p : Problem.t) ~self =
  Dda_obs.Metrics.incr m_queries;
  let budget = Budget.create ~cancel:st.cancel st.cfg.limits in
  let settle () =
    let used = Budget.steps_used budget in
    Dda_obs.Metrics.observe h_budget_steps used;
    Dda_obs.Attrib.add_steps used
  in
  match compute_inner st budget p ~self with
  | out ->
    settle ();
    out
  | exception e ->
    settle ();
    raise e

let reinsert_outcome (info : Canonical.info) = function
  | Tested t when info.dropped_any ->
    Tested
      {
        t with
        directions = List.map (Canonical.reinsert_vector info) t.directions;
      }
  | (Tested _ | Constant _ | Assumed_dependent | Gcd_independent) as o -> o

(* A memo hit under the swapped orientation answers the mirror-image
   question: flip every direction and negate distances. *)
let mirror_outcome = function
  | Tested t ->
    Tested
      {
        t with
        directions = List.map (Array.map Direction.flip) t.directions;
        distance = Option.map (Array.map Zint.neg) t.distance;
      }
  | (Constant _ | Assumed_dependent | Gcd_independent) as o -> o

(* The key {!Build_problem.key} writes straight from the two sites, for
   the full table: the empty array when memoization is off or the pair
   has no direct key. *)
let direct_key st ~self s1 s2 =
  match st.cfg.memo with
  | Memo_off -> [||]
  | Memo_simple | Memo_improved | Memo_symmetric ->
    Build_problem.key ~tag:(if self then 1 else 0) s1 s2

(* The full table's answer for the pair's problem as built, from its
   direct key: a hit needs no build, canonicalization or reinsertion
   (see [cache.probe_full]). Under the symmetric scheme the built
   orientation is the one a hit can be stored under: its mirror keys no
   smaller. A miss, or a pair with no direct key, takes the build
   path. *)
let probe_full st key =
  if Array.length key = 0 then None
  else begin
    let s = st.stats in
    match st.cache.probe_full key with
    | Some _ as hit ->
      s.memo_lookups_full <- s.memo_lookups_full + 1;
      s.memo_hits_full <- s.memo_hits_full + 1;
      Dda_obs.Metrics.incr m_lookups;
      Dda_obs.Metrics.incr m_hits;
      hit
    | None -> None
    | exception e ->
      (* the hit's failpoint fired: a lookup, as in [find_or_add] *)
      s.memo_lookups_full <- s.memo_lookups_full + 1;
      Dda_obs.Metrics.incr m_lookups;
      raise e
  end

let rec analyze_pair_inner st (s1 : Affine.site) (s2 : Affine.site) =
  Failpoint.hit "analyzer.pair";
  st.stats.pairs <- st.stats.pairs + 1;
  let self = Loc.equal s1.site_loc s2.site_loc in
  let ncommon = Affine.common_loops s1 s2 in
  let ids (s : Affine.site) = List.map (fun c -> c.Affine.lid) s.loops in
  let ids1 = ids s1 in
  let finish outcome =
    (match outcome with
     | Constant d -> if d then st.stats.dependent_pairs <- st.stats.dependent_pairs + 1
       else st.stats.independent_pairs <- st.stats.independent_pairs + 1
     | Assumed_dependent -> st.stats.dependent_pairs <- st.stats.dependent_pairs + 1
     | Gcd_independent -> st.stats.independent_pairs <- st.stats.independent_pairs + 1
     | Tested t ->
       if t.degraded <> None then
         st.stats.degraded_pairs <- st.stats.degraded_pairs + 1;
       if t.dependent then begin
         st.stats.dependent_pairs <- st.stats.dependent_pairs + 1;
         st.stats.vectors_reported <-
           st.stats.vectors_reported + List.length t.directions
       end
       else st.stats.independent_pairs <- st.stats.independent_pairs + 1);
    {
      array_name = s1.array;
      loc1 = s1.site_loc;
      loc2 = s2.site_loc;
      stmt1 = s1.stmt_loc;
      stmt2 = s2.stmt_loc;
      role1 = s1.role;
      role2 = s2.role;
      self_pair = self;
      ncommon;
      common_ids = List.filteri (fun i _ -> i < ncommon) ids1;
      enclosing_ids1 = ids1;
      enclosing_ids2 = ids s2;
      outcome;
    }
  in
  match (Affine.constant_subscripts s1, Affine.constant_subscripts s2) with
  | Some c1, Some c2 when List.length c1 = List.length c2 && not self ->
    (* The paper's "array constants" column: compared directly, no
       dependence testing. *)
    st.stats.constant_cases <- st.stats.constant_cases + 1;
    finish (Constant (List.for_all2 Zint.equal c1 c2))
  | _ -> (
      (* Backstop for exhaustion paths the cascade and the refinement
         could not absorb (a tick in Extended GCD, an injected
         exhaustion): an unmemoized, fully conservative degraded
         verdict. Nothing half-computed is cached —
         [Memo_table.find_or_add] stores only on normal return. *)
      try
        let probed = direct_key st ~self s1 s2 in
        match probe_full st probed with
        | Some value -> finish value
        | None -> (
            match Build_problem.build s1 s2 with
            | None ->
              st.stats.assumed <- st.stats.assumed + 1;
              finish Assumed_dependent
            | Some problem -> analyze_problem st ~self ~finish ~probed problem)
      with Budget.Exhausted reason ->
        finish
          (Tested
             {
               dependent = true;
               unknown = true;
               decided_by = None;
               directions = [];
               distance = None;
               implicit_bb = false;
               degraded = Some reason;
             }))

(* [probed] is the direct key the probe missed with, or the empty
   array. *)
and analyze_problem st ~self ~finish ~probed problem =
          let info_of prob =
            match st.cfg.memo with
            | Memo_improved | Memo_symmetric -> Canonical.reduce ~keep_common:self prob
            | Memo_off | Memo_simple ->
              {
                Canonical.problem = prob;
                kept_common = Array.make prob.Problem.ncommon true;
                dropped_any = false;
              }
          in
          let info = info_of problem in
          (* The symmetric scheme canonicalizes the pair's orientation:
             whichever of the problem and its swap keys smaller wins,
             and a hit under the swapped orientation is mirrored back. *)
          let mirrored, info =
            if st.cfg.memo = Memo_symmetric && not self then begin
              let info_s = info_of (Problem.swap problem) in
              match
                compare (Problem.to_key info_s.Canonical.problem)
                  (Problem.to_key info.Canonical.problem)
              with
              | c -> if c < 0 then (true, info_s) else (false, info)
              | exception Problem.Unkeyable -> (false, info)
            end
            else (false, info)
          in
          let deliver value =
            let out = reinsert_outcome info value in
            finish (if mirrored then mirror_outcome out else out)
          in
          let direct st = deliver (compute st info.Canonical.problem ~self) in
          match st.cfg.memo with
          | Memo_off -> direct st
          | Memo_simple | Memo_improved | Memo_symmetric -> (
              (* Borrowed scratch key: every cache backend copies it on
                 a miss before computing, and the hit path discards it.
                 When canonicalization dropped nothing and kept the
                 built orientation, the lookup key is the probe's: the
                 problem is the one built, and nothing since the probe
                 (the build, [Canonical.reduce], the symmetric scheme's
                 [Problem.to_key] comparison) writes a scratch key. A
                 problem past the native int range has no key and is
                 computed outside both memo tables. *)
              match
                if Array.length probed > 0 && (not info.Canonical.dropped_any) && not mirrored
                then probed
                else
                  Problem.to_key_scratch ~tag:(if self then 1 else 0)
                    info.Canonical.problem
              with
              | exception Problem.Unkeyable ->
                direct { st with cfg = { st.cfg with memo = Memo_off } }
              | key ->
                let s = st.stats in
                s.memo_lookups_full <- s.memo_lookups_full + 1;
                Dda_obs.Metrics.incr m_lookups;
                let value, hit =
                  st.cache.find_or_add_full key (fun () ->
                      compute st info.Canonical.problem ~self)
                in
                if hit then begin
                  s.memo_hits_full <- s.memo_hits_full + 1;
                  Dda_obs.Metrics.incr m_hits
                end;
                deliver value)

let pair_probe =
  Dda_obs.Probe.make ~span:"pair" ~calls:"analyzer.pairs"
    [ Dda_obs.Probe.field "outcome" (fun (r : pair_report) ->
          match r.outcome with
          | Constant _ -> 0
          | Assumed_dependent -> 1
          | Gcd_independent -> 2
          | Tested _ -> 3);
      Dda_obs.Probe.field "dependent" (fun (r : pair_report) ->
          match r.outcome with
          | Constant d -> Bool.to_int d
          | Assumed_dependent -> 1
          | Gcd_independent -> 0
          | Tested t -> Bool.to_int t.dependent) ]

let analyze_pair st s1 s2 =
  Dda_obs.Probe.run pair_probe (fun () -> analyze_pair_inner st s1 s2)

let fresh_state ?(cancel = fun () -> false) ?cache cfg =
  {
    cfg;
    stats = fresh_stats ();
    cache = (match cache with Some c -> c | None -> memory_cache ());
    cancel;
  }

(* The id of a site's outermost loop; -1 outside every loop. *)
let nest_of (s : Affine.site) =
  match s.loops with c :: _ -> c.Affine.lid | [] -> -1

(* Whether each top-level nest's sites are contiguous, nests in
   increasing id order: the textual order {!Affine.extract} emits. *)
let nests_in_order sites =
  let rec go last cur = function
    | [] -> true
    | s :: rest ->
      let n = nest_of s in
      if n >= 0 && n = cur then go last cur rest
      else
        let last = max last cur in
        (n < 0 || n > last) && go last n rest
  in
  go (-1) (-1) sites

(* The sites of one array met so far in the backward walk, in textual
   order: all of them, and the writes alone; [nest] says which run of
   sites they belong to. *)
type site_group = {
  mutable nest : int;
  mutable later : Affine.site list;
  mutable later_writes : Affine.site list;
}

(* [(s1, s2)] for every [s2] of [later], in order, in front of [acc]. *)
let rec prepend_pairs ~filter s1 later acc =
  match later with
  | [] -> acc
  | s2 :: rest ->
    let acc = prepend_pairs ~filter s1 rest acc in
    if (not filter) || Affine.common_loops s1 s2 >= 1 then (s1, s2) :: acc
    else acc

(* Sites are walked last to first and grouped by array; each site meets
   only the later sites of its own array — all of them for a write
   (itself first, as a self pair), only the writes for a read, since a
   read-read pair never qualifies — and its pairs go in front of the
   later sites', which keeps the textual (first, second) order of an
   all-pairs scan. Under [within_nest_only] only sites of one top-level
   nest can share a loop, so the groups start afresh at each nest and a
   site outside every loop meets only itself. *)
let site_pairs cfg sites =
  let split = cfg.within_nest_only && nests_in_order sites in
  let filter = cfg.within_nest_only && not split in
  let groups = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun (s1 : Affine.site) ->
       let nest = if split then nest_of s1 else 0 in
       (* self pairs need direction machinery; skip in plain mode *)
       let self = cfg.directions && s1.role = `Write in
       if nest < 0 then (if self then out := (s1, s1) :: !out)
       else begin
         let g =
           match Hashtbl.find groups s1.array with
           | g ->
             if g.nest <> nest then begin
               g.nest <- nest;
               g.later <- [];
               g.later_writes <- []
             end;
             g
           | exception Not_found ->
             let g = { nest; later = []; later_writes = [] } in
             Hashtbl.add groups s1.array g;
             g
         in
         (match s1.role with
          | `Write ->
            out := prepend_pairs ~filter s1 g.later !out;
            if self then out := (s1, s1) :: !out;
            g.later_writes <- s1 :: g.later_writes
          | `Read -> out := prepend_pairs ~filter s1 g.later_writes !out);
         g.later <- s1 :: g.later
       end)
    (List.rev sites);
  !out

let analyze_sites ?(config = default_config) ?cancel ?cache pairs =
  let st = fresh_state ?cancel ?cache config in
  let reports = List.map (fun (s1, s2) -> analyze_pair st s1 s2) pairs in
  (* Unique counts are the backend's sizes: absolute for a cache that
     outlives the call (the serve daemon's durable one). *)
  let gcd, full = st.cache.cache_sizes () in
  st.stats.memo_unique_nobounds <- gcd;
  st.stats.memo_unique_full <- full;
  { pair_reports = reports; stats = st.stats }

type front = {
  source : Ast.program;
  prepared : Ast.program;
  sites : Affine.site list;
  pairs : (Affine.site * Affine.site) list;
}

let front_end config source =
  let prepared =
    if config.run_pipeline then Dda_passes.Pipeline.run source else source
  in
  let sites = Affine.extract ~symbolic:config.symbolic prepared in
  { source; prepared; sites; pairs = site_pairs config sites }

let analyze ?(config = default_config) ?cancel ?cache program =
  analyze_sites ~config ?cancel ?cache (front_end config program).pairs

(* Version 2: [config] grew the [limits] field (budget caps).
   Version 3: memo keys became [int array] and entries store their
   hash, changing the marshaled layout. *)
let memo_format_version = 3
