open Dda_numeric

type outcome =
  | Infeasible of Cert.infeasible
  | Feasible of Zint.t array
  | Unknown
  | Exhausted of Budget.reason

type stats = {
  mutable eliminations : int;
  mutable max_rows : int;
  mutable branches : int;
}

let fresh_stats () = { eliminations = 0; max_rows = 0; branches = 0 }

(* Working rows live in a {!Row_arena}: the coefficient vector is the
   [nvars]-wide arena slice at [off], so combining two rows allocates
   arena slots (reused across runs) instead of a fresh array per
   combination. Only the bound and the provenance are materialized. *)
type arow = {
  off : int;
  arhs : Zint.t;
  awhy : Cert.deriv;
}

(* Per-domain solver workspace: the row arena plus the dedup table's
   backing store, all reused run to run (a run resets them on entry;
   nothing row-shaped escapes the solver — outcomes carry only witness
   copies and derivations). [busy] guards against re-entrant runs on
   the same domain, which would tear the arena; a nested run (none
   exist today) would fall back to a private workspace. *)
type ws = {
  arena : Row_arena.t;
  dtab : (int, int list ref) Hashtbl.t;  (* slice hash -> indices into dout *)
  mutable dout : arow array;
  mutable dlen : int;
  mutable busy : bool;
}

let dummy_arow = { off = 0; arhs = Zint.zero; awhy = Cert.Hyp 0 }

let fresh_ws () =
  {
    arena = Row_arena.create ();
    dtab = Hashtbl.create 64;
    dout = Array.make 64 dummy_arow;
    dlen = 0;
    busy = false;
  }

let ws_key = Domain.DLS.new_key fresh_ws

let with_ws f =
  let ws = Domain.DLS.get ws_key in
  if ws.busy then f (fresh_ws ())
  else begin
    ws.busy <- true;
    Fun.protect ~finally:(fun () -> ws.busy <- false) (fun () -> f ws)
  end

let slice_num_used arena off n =
  let used = ref 0 in
  for i = off to off + n - 1 do
    if not (Zint.is_zero (Row_arena.get arena i)) then incr used
  done;
  !used

let dout_push ws r =
  if ws.dlen = Array.length ws.dout then begin
    let bigger = Array.make (2 * ws.dlen) dummy_arow in
    Array.blit ws.dout 0 bigger 0 ws.dlen;
    ws.dout <- bigger
  end;
  ws.dout.(ws.dlen) <- r;
  ws.dlen <- ws.dlen + 1

type dedup_result =
  | Contradiction of Cert.deriv
  | Rows of arow list

(* Keep one row per coefficient vector (the tightest), drop trivially
   true rows, and detect trivially false ones. Keyed structurally on
   the arena slice — a combined hash plus element-wise equality, so a
   collision can never corrupt a row. Survivors come back in
   first-seen order, independent of hash values. *)
let dedup ws ~n rows =
  Hashtbl.clear ws.dtab;
  ws.dlen <- 0;
  let arena = ws.arena in
  let contradiction = ref None in
  List.iter
    (fun (r : arow) ->
       if slice_num_used arena r.off n = 0 then begin
         if Zint.is_negative r.arhs && !contradiction = None then
           contradiction := Some r.awhy
       end
       else begin
         let h = Row_arena.hash_slice arena ~off:r.off ~len:n in
         match Hashtbl.find_opt ws.dtab h with
         | None ->
           Hashtbl.add ws.dtab h (ref [ ws.dlen ]);
           dout_push ws r
         | Some bucket ->
           let rec find = function
             | [] ->
               bucket := ws.dlen :: !bucket;
               dout_push ws r
             | j :: rest ->
               if Row_arena.equal_slice arena ws.dout.(j).off r.off ~len:n then begin
                 if Zint.compare ws.dout.(j).arhs r.arhs > 0 then ws.dout.(j) <- r
               end
               else find rest
           in
           find !bucket
       end)
    rows;
  match !contradiction with
  | Some why -> Contradiction why
  | None ->
    let rec collect i acc =
      if i < 0 then acc else collect (i - 1) (ws.dout.(i) :: acc)
    in
    Rows (collect (ws.dlen - 1) [])

type step = {
  var : int;
  step_rows : arow list;  (* the rows mentioning [var] at its turn *)
}

(* One combination row, with normalization fused in: the combined
   coefficients are written straight into a fresh arena slice while
   the gcd accumulates in the same pass, and dividing through by the
   gcd rewrites that slice in place — no per-combination array, and no
   second allocation for the normalized row. Without [tighten],
   dividing by the gcd only happens when it divides the bound too, so
   the row stays equivalent over the rationals. With [tighten], the
   bound is floored: sound for integer variables, stronger than
   rational reasoning. Either change is exactly what [Cert.Tighten]
   derives (exact division is flooring that loses nothing), so the
   provenance records one [Tighten]. *)
let combine ws ~budget ~tighten ~n (u : arow) (l : arow) v =
  let arena = ws.arena in
  let a = Row_arena.get arena (u.off + v) in
  let b = Zint.neg (Row_arena.get arena (l.off + v)) in
  (* b*u + a*l cancels v; both multipliers positive. *)
  let off = Row_arena.alloc arena n in
  let g = ref Zint.zero in
  for i = 0 to n - 1 do
    let c =
      Zint.add
        (Zint.mul b (Row_arena.get arena (u.off + i)))
        (Zint.mul a (Row_arena.get arena (l.off + i)))
    in
    Row_arena.set arena (off + i) c;
    g := Zint.gcd !g c
  done;
  Budget.tick budget;
  let rhs = Zint.add (Zint.mul b u.arhs) (Zint.mul a l.arhs) in
  let why = Cert.Comb [ (b, u.awhy); (a, l.awhy) ] in
  let g = !g in
  let divide_through () =
    for i = 0 to n - 1 do
      Row_arena.set arena (off + i) (Zint.divexact (Row_arena.get arena (off + i)) g)
    done
  in
  let dr =
    if Zint.is_zero g || Zint.is_one g then { off; arhs = rhs; awhy = why }
    else if tighten then begin
      divide_through ();
      { off; arhs = Zint.fdiv rhs g; awhy = Cert.Tighten why }
    end
    else if Zint.divides g rhs then begin
      divide_through ();
      { off; arhs = Zint.divexact rhs g; awhy = Cert.Tighten why }
    end
    else { off; arhs = rhs; awhy = why }
  in
  for i = 0 to n - 1 do
    Budget.check_coeff budget (Row_arena.get arena (dr.off + i))
  done;
  dr

(* Eliminate [v]: pair every upper bound with each lower bound. *)
let eliminate ws ~budget ~tighten ~n v rows =
  let arena = ws.arena in
  let uppers, lowers, rest =
    List.fold_left
      (fun (u, l, r) (dr : arow) ->
         let c = Row_arena.get arena (dr.off + v) in
         if Zint.is_positive c then (dr :: u, l, r)
         else if Zint.is_negative c then (u, dr :: l, r)
         else (u, l, dr :: r))
      ([], [], []) rows
  in
  let combos =
    List.concat_map
      (fun (u : arow) ->
         List.map (fun (l : arow) -> combine ws ~budget ~tighten ~n u l v) lowers)
      uppers
  in
  (uppers @ lowers, combos @ rest)

(* Tightening a single-variable row [a*t_v <= r] yields exactly the
   integer bound used during back-substitution: [t_v <= fdiv r a] for
   [a > 0], [-t_v <= fdiv r |a|] (i.e. [t_v >= ceil(r/a)]) for
   [a < 0]. *)
let tightened_bound_why ws ~n (dr : arow) v =
  assert (slice_num_used ws.arena dr.off n = 1);
  if Zint.is_one (Zint.abs (Row_arena.get ws.arena (dr.off + v))) then dr.awhy
  else Cert.Tighten dr.awhy

let arow_satisfies arena ~n point (r : arow) =
  let acc = ref Zint.zero in
  for i = 0 to n - 1 do
    acc := Zint.add !acc (Zint.mul (Row_arena.get arena (r.off + i)) point.(i))
  done;
  Zint.compare !acc r.arhs <= 0

let rec solve ws ~budget ~tighten ~stats ~depth ~ncuts ~nvars rows =
  Budget.tick budget ~cost:(List.length rows);
  match dedup ws ~n:nvars rows with
  | Contradiction why -> Infeasible (Cert.Refute why)
  | Rows rows ->
    stats.max_rows <- max stats.max_rows (List.length rows);
    Budget.check_rows budget (List.length rows);
    (* Elimination order: ascending variable index over the variables
       actually present, as in the paper. *)
    let used = Array.make nvars false in
    List.iter
      (fun (dr : arow) ->
         for i = 0 to nvars - 1 do
           if not (Zint.is_zero (Row_arena.get ws.arena (dr.off + i))) then
             used.(i) <- true
         done)
      rows;
    let order = ref [] in
    for i = nvars - 1 downto 0 do
      if used.(i) then order := i :: !order
    done;
    let rec eliminate_all rows steps = function
      | [] -> Ok (List.rev steps, rows)
      | v :: vs -> (
          stats.eliminations <- stats.eliminations + 1;
          let mentioning, remaining = eliminate ws ~budget ~tighten ~n:nvars v rows in
          match dedup ws ~n:nvars remaining with
          | Contradiction why -> Error why
          | Rows remaining ->
            stats.max_rows <- max stats.max_rows (List.length remaining);
            Budget.check_rows budget (List.length remaining);
            eliminate_all remaining ({ var = v; step_rows = mentioning } :: steps) vs)
    in
    (match eliminate_all rows [] !order with
     | Error why -> Infeasible (Cert.Refute why)
     | Ok (steps, residue) ->
       (* The residue is variable-free; dedup already rejected negative
          bounds, so the system is rationally feasible. *)
       assert (
         List.for_all
           (fun (dr : arow) -> slice_num_used ws.arena dr.off nvars = 0)
           residue);
       back_substitute ws ~budget ~tighten ~stats ~depth ~ncuts ~nvars
         ~original:rows steps)

and back_substitute ws ~budget ~tighten ~stats ~depth ~ncuts ~nvars ~original steps =
  let arena = ws.arena in
  let values = Array.make nvars Qnum.zero in
  (* Walk the steps in reverse elimination order; the first variable
     visited has constant bounds. *)
  let rec assign ~first = function
    | [] ->
      let witness = Array.map Qnum.to_zint_exn values in
      assert (List.for_all (arow_satisfies arena ~n:nvars witness) original);
      Feasible witness
    | { var = v; step_rows } :: rest -> (
        Budget.tick budget ~cost:(List.length step_rows);
        let lo = ref None and hi = ref None in
        List.iter
          (fun (dr : arow) ->
             let a = Row_arena.get arena (dr.off + v) in
             let sum = ref (Qnum.of_zint dr.arhs) in
             for i = 0 to nvars - 1 do
               let c = Row_arena.get arena (dr.off + i) in
               if i <> v && not (Zint.is_zero c) then
                 sum := Qnum.sub !sum (Qnum.mul (Qnum.of_zint c) values.(i))
             done;
             let bound = Qnum.div !sum (Qnum.of_zint a) in
             if Zint.is_positive a then (
               match !hi with
               | Some (h, _) when Qnum.compare bound h >= 0 -> ()
               | Some _ | None -> hi := Some (bound, dr))
             else
               match !lo with
               | Some (l, _) when Qnum.compare bound l <= 0 -> ()
               | Some _ | None -> lo := Some (bound, dr))
          step_rows;
        match (!lo, !hi) with
        | None, None ->
          values.(v) <- Qnum.zero;
          assign ~first:false rest
        | Some (l, _), None ->
          values.(v) <- Qnum.of_zint (Qnum.ceil l);
          assign ~first:false rest
        | None, Some (h, _) ->
          values.(v) <- Qnum.of_zint (Qnum.floor h);
          assign ~first:false rest
        | Some (l, lo_dr), Some (h, hi_dr) -> (
            match Qnum.mid_integer l h with
            | Some m ->
              values.(v) <- Qnum.of_zint m;
              assign ~first:false rest
            | None ->
              if first then
                (* Constant range with no integer: provably no integer
                   solution anywhere (paper's special case). The binding
                   rows are single-variable here, so their integer
                   tightenings [t_v <= floor h] and [-t_v <= -ceil l]
                   sum to [0 <= floor h - ceil l < 0]. *)
                Infeasible
                  (Cert.Refute
                     (Cert.Comb
                        [
                          (Zint.one, tightened_bound_why ws ~n:nvars hi_dr v);
                          (Zint.one, tightened_bound_why ws ~n:nvars lo_dr v);
                        ]))
              else if
                depth <= 0 || stats.branches >= (Budget.limits budget).fm_branches
              then Unknown
              else begin
                (* Branch-and-bound: [l, h] lies strictly between two
                   consecutive integers m and m+1. *)
                stats.branches <- stats.branches + 1;
                let m = Qnum.floor l in
                let le_off = Row_arena.alloc arena nvars in
                Row_arena.set arena (le_off + v) Zint.one;
                let le_row = { off = le_off; arhs = m; awhy = Cert.Cut ncuts } in
                let ge_off = Row_arena.alloc arena nvars in
                Row_arena.set arena (ge_off + v) Zint.minus_one;
                let ge_row =
                  { off = ge_off; arhs = Zint.neg (Zint.succ m); awhy = Cert.Cut ncuts }
                in
                (* Rows combined inside a branch die with it: pop the
                   arena back once the subtree answers. *)
                let stack_mark = Row_arena.mark arena in
                let left =
                  solve ws ~budget ~tighten ~stats ~depth:(depth - 1)
                    ~ncuts:(ncuts + 1) ~nvars (le_row :: original)
                in
                Row_arena.truncate arena stack_mark;
                match left with
                | Feasible _ as ok -> ok
                | Infeasible _ | Unknown | Exhausted _ -> (
                    let right =
                      solve ws ~budget ~tighten ~stats ~depth:(depth - 1)
                        ~ncuts:(ncuts + 1) ~nvars (ge_row :: original)
                    in
                    Row_arena.truncate arena stack_mark;
                    match (left, right) with
                    | _, (Feasible _ as ok) -> ok
                    | Infeasible cl, Infeasible cr ->
                      Infeasible
                        (Cert.Split { var = v; bound = m; left = cl; right = cr })
                    | Exhausted r, _ | _, Exhausted r -> Exhausted r
                    | _, _ -> Unknown)
              end))
  in
  assign ~first:true (List.rev steps)

let probe =
  Dda_obs.Probe.stage ~span:"fourier-motzkin" Dda_obs.Attrib.Fourier (function
    | Infeasible _ -> 0
    | Feasible _ -> 1
    | Unknown -> 2
    | Exhausted _ -> 3)

let m_elims = Dda_obs.Metrics.counter "test.fourier.eliminations"
let m_branches = Dda_obs.Metrics.counter "test.fourier.branches"

let run_inner ?budget ?(tighten = false) ?stats (sys : Consys.t) =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Failpoint.hit "fourier.solve";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  with_ws @@ fun ws ->
  Row_arena.reset ws.arena;
  (* Hypotheses are staged into the arena up front; every derived row
     follows them, so a run's rows occupy one contiguous region. *)
  let rows =
    List.mapi
      (fun i (r : Consys.row) ->
         { off = Row_arena.blit_from ws.arena r.coeffs; arhs = r.rhs; awhy = Cert.Hyp i })
      sys.rows
  in
  match
    solve ws ~budget ~tighten ~stats ~depth:(Budget.limits budget).fm_depth
      ~ncuts:0 ~nvars:sys.nvars rows
  with
  | outcome -> outcome
  | exception Budget.Exhausted reason -> Exhausted reason

let run ?budget ?(tighten = false) ?stats (sys : Consys.t) =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let e0 = stats.eliminations and b0 = stats.branches in
  let out =
    Dda_obs.Probe.run probe
      ~args:(fun _ ->
          [ ("eliminations", stats.eliminations - e0);
            ("branches", stats.branches - b0);
            ("max_rows", stats.max_rows) ])
      (fun () -> run_inner ?budget ~tighten ~stats sys)
  in
  Dda_obs.Metrics.add m_elims (stats.eliminations - e0);
  Dda_obs.Metrics.add m_branches (stats.branches - b0);
  out
