open Dda_numeric
open Dda_lang
open Dda_core

type severity =
  | Sev_error
  | Sev_warning

type diagnostic = {
  severity : severity;
  loc : Loc.t;
  loc2 : Loc.t option;
  array_name : string option;
  code : string;
  message : string;
}

type summary = {
  diagnostics : diagnostic list;
  pairs : int;
  certificates : int;
  errors : int;
  warnings : int;
}

type acc = {
  mutable diags : diagnostic list;  (* reversed *)
  mutable ncerts : int;
  mutable nerrors : int;
  mutable nwarnings : int;
}

let emit acc ~severity ?at ?at2 ~(r : Analyzer.pair_report) ~code fmt =
  Format.kasprintf
    (fun message ->
       let loc = Option.value at ~default:r.loc1 in
       let loc2 =
         match at2 with
         | Some _ -> at2
         | None -> if Loc.equal r.loc1 r.loc2 then None else Some r.loc2
       in
       (match severity with
        | Sev_error -> acc.nerrors <- acc.nerrors + 1
        | Sev_warning -> acc.nwarnings <- acc.nwarnings + 1);
       acc.diags <-
         { severity; loc; loc2; array_name = Some r.array_name; code; message }
         :: acc.diags)
    fmt

(* Count a certificate validation; a rejection becomes an error
   diagnostic prefixed with what was being validated. *)
let checked acc ~r ~code ~what = function
  | Ok () -> acc.ncerts <- acc.ncerts + 1
  | Error e ->
    acc.ncerts <- acc.ncerts + 1;
    emit acc ~severity:Sev_error ~r ~code "array '%s': %s rejected: %s"
      r.Analyzer.array_name what e

(* ------------------------------------------------------------------ *)
(* Deliberate corruption (--corrupt): a deterministic self-test that   *)
(* the checker rejects bad evidence                                    *)
(* ------------------------------------------------------------------ *)

let corrupt_witness x =
  if Array.length x = 0 then [| Zint.one |]
  else Array.sub x 0 (Array.length x - 1)

let corrupt_infeasible _ = Cert.Refute (Cert.Hyp (-1))
let corrupt_refutation (c : Cert.eq_refutation) = { c with Cert.modulus = Zint.one }

(* ------------------------------------------------------------------ *)
(* Direction obligations                                               *)
(* ------------------------------------------------------------------ *)

(* The non-identity solutions of a pair's system partition by the first
   common level where the two iterations differ, and the sign of the
   difference: 2 * ncommon obligations, each a cascade query with the
   corresponding direction rows appended. Appending the all-equal cell
   as well ([include_all_eq]) covers the whole space — what the
   verification of a non-self "independent via direction vectors"
   (implicit branch-and-bound) claim needs. *)
let obligations ~ncommon ~include_all_eq =
  let strict =
    List.concat_map
      (fun k -> [ Some (k, Direction.Dlt); Some (k, Direction.Dgt) ])
      (List.init ncommon Fun.id)
  in
  if include_all_eq then strict @ [ None ] else strict

(* Check, with the checker's own arithmetic, that a witness realizes
   the obligation's iteration relation: equal on the levels before [k],
   strict at [k]. *)
let relation_error p x = function
  | None -> None
  | Some (k, sign) ->
    let v1 j = x.(Problem.var1 p j) and v2 j = x.(Problem.var2 p j) in
    let rec eqs j =
      if j >= k then
        let c = Zint.compare (v1 k) (v2 k) in
        let ok =
          match sign with
          | Direction.Dlt -> c < 0
          | Direction.Dgt -> c > 0
          | Direction.Deq | Direction.Dany -> true
        in
        if ok then None
        else
          Some
            (Printf.sprintf "the witness does not realize direction %c at level %d"
               (Direction.dir_char sign) k)
      else if Zint.equal (v1 j) (v2 j) then eqs (j + 1)
      else
        Some
          (Format.asprintf
             "the witness differs at level %d, before the claimed first \
              difference at level %d"
             j k)
    in
    eqs 0

(* Walk every obligation of a pair through the cascade and certify the
   answers. An obligation left undecided is warned about once per kind,
   worded by the reported verdict: [fm-exhausted] when Fourier-Motzkin's
   branch budget ran out ([Cascade.Unknown]), [degraded] naming the
   {!Budget} limit that ran out. Returns (found_dependent,
   found_undecided). *)
let verify_obligations acc ~cancel ~corrupt ~(config : Analyzer.config) ~r
    ~reported_dep p (red : Gcd_test.reduction) ~include_all_eq =
  let dependent_found = ref false in
  let fm_warned = ref false and degraded_warned = ref false in
  let standing =
    if reported_dep then "the dependent verdict is assumed, not certified"
    else "the independent verdict is not certified"
  in
  List.iter
    (fun tag ->
       let sys =
         match tag with
         | Some (k, sign) -> Direction.first_difference p red k sign
         | None -> Direction.first_difference p red p.Problem.ncommon Direction.Dany
       in
       let budget = Budget.create ~cancel config.Analyzer.limits in
       let cas = Cascade.run ~budget ~fm_tighten:config.Analyzer.fm_tighten sys in
       match cas.Cascade.verdict with
       | Cascade.Dependent w ->
         dependent_found := true;
         let x = Gcd_test.x_of_t red w in
         (match relation_error p x tag with
          | Some e ->
            acc.ncerts <- acc.ncerts + 1;
            emit acc ~severity:Sev_error ~r ~code:"bad-witness"
              "array '%s': %s" r.Analyzer.array_name e
          | None ->
            let x = if corrupt then corrupt_witness x else x in
            checked acc ~r ~code:"bad-witness" ~what:"direction-obligation witness"
              (Certcheck.check_problem_witness x p))
       | Cascade.Independent cert ->
         let cert = if corrupt then corrupt_infeasible cert else cert in
         checked acc ~r ~code:"bad-certificate"
           ~what:"direction-obligation independence certificate"
           (Certcheck.check_infeasible ~nvars:sys.Consys.nvars sys.Consys.rows
              cert)
       | Cascade.Unknown ->
         if not !fm_warned then begin
           fm_warned := true;
           emit acc ~severity:Sev_warning ~r ~code:"fm-exhausted"
             "array '%s': a direction obligation exhausted the \
              Fourier-Motzkin branch budget; %s"
             r.Analyzer.array_name standing
         end
       | Cascade.Exhausted reason ->
         if not !degraded_warned then begin
           degraded_warned := true;
           emit acc ~severity:Sev_warning ~r ~code:"degraded"
             "array '%s': replaying a direction obligation exhausted the %s \
              budget; %s"
             r.Analyzer.array_name (Budget.reason_name reason) standing
         end)
    (obligations ~ncommon:p.Problem.ncommon ~include_all_eq);
  (!dependent_found, !fm_warned || !degraded_warned)

(* ------------------------------------------------------------------ *)
(* Per-pair verification                                               *)
(* ------------------------------------------------------------------ *)

let warn_symbolic_bounds acc ~r (s1 : Affine.site) =
  List.filteri (fun i _ -> i < r.Analyzer.ncommon) s1.Affine.loops
  |> List.iter (fun (c : Affine.loop_ctx) ->
      if Option.is_none c.Affine.lb || Option.is_none c.Affine.ub then
        emit acc ~severity:Sev_warning ~r ~code:"symbolic-bound"
          "bound of loop '%s' is not affine: the dependence system leaves \
           its range unconstrained, so this verdict may be conservative"
          c.Affine.lvar)

let warn_non_affine acc ~r ~at (s : Affine.site) =
  List.iteri
    (fun dim sub ->
       if Option.is_none sub then
         emit acc ~severity:Sev_warning ~r ~at ~code:"non-affine"
           "subscript %d of array '%s' is not affine: the pair is assumed \
            dependent without testing"
           dim s.Affine.array)
    s.Affine.subscripts

let verify_assumed acc ~r (s1 : Affine.site) (s2 : Affine.site) =
  match Build_problem.build s1 s2 with
  | Some _ ->
    emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
      "array '%s': the analyzer assumed dependence but the pair's problem \
       builds cleanly on replay"
      r.Analyzer.array_name
  | None ->
    warn_non_affine acc ~r ~at:r.Analyzer.loc1 s1;
    if not (Loc.equal r.Analyzer.loc1 r.Analyzer.loc2) then
      warn_non_affine acc ~r ~at:r.Analyzer.loc2 s2;
    let d1 = List.length s1.Affine.subscripts
    and d2 = List.length s2.Affine.subscripts in
    if Affine.analyzable s1 && Affine.analyzable s2 && d1 <> d2 then
      emit acc ~severity:Sev_warning ~r ~code:"rank-mismatch"
        "references to array '%s' disagree on rank (%d vs %d subscripts): \
         the pair is assumed dependent without testing"
        r.Analyzer.array_name d1 d2

let verify_constant acc ~r (s1 : Affine.site) (s2 : Affine.site) claimed =
  match (Affine.constant_subscripts s1, Affine.constant_subscripts s2) with
  | Some c1, Some c2 when List.length c1 = List.length c2 ->
    let truth = List.for_all2 Zint.equal c1 c2 in
    if truth <> claimed then
      emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
        "array '%s': constant subscripts compare %s but the pair was \
         reported %s"
        r.Analyzer.array_name
        (if truth then "equal" else "unequal")
        (if claimed then "dependent" else "independent")
  | _ ->
    emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
      "array '%s': reported as a constant-subscript pair but the subscripts \
       are not constant on replay"
      r.Analyzer.array_name

let verify_gcd_independent acc ~corrupt ~r (s1 : Affine.site) (s2 : Affine.site) =
  match Build_problem.build s1 s2 with
  | None ->
    emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
      "array '%s': the analyzer tested this pair but its problem does not \
       build on replay"
      r.Analyzer.array_name
  | Some p -> (
      match Gcd_test.run_eqs p with
      | Gcd_test.Independent cert ->
        let cert = if corrupt then corrupt_refutation cert else cert in
        checked acc ~r ~code:"bad-refutation" ~what:"equality refutation"
          (Certcheck.check_eq_refutation cert ~nvars:(Problem.nvars p)
             p.Problem.eqs)
      | Gcd_test.Reduced _ ->
        emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
          "array '%s': reported independent by the extended gcd test, but \
           the equalities reduce on replay"
          r.Analyzer.array_name)

let verify_tested acc ~cancel ~oracle ~corrupt ~(config : Analyzer.config) ~r
    (s1 : Affine.site) (s2 : Affine.site) ~reported_dep ~degraded =
  match Build_problem.build s1 s2 with
  | None ->
    emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
      "array '%s': the analyzer tested this pair but its problem does not \
       build on replay"
      r.Analyzer.array_name
  | Some p -> (
      match Gcd_test.run p with
      | Gcd_test.Independent _ ->
        emit acc ~severity:Sev_error ~r ~code:"replay-divergence"
          "array '%s': reported as tested, but the extended gcd test already \
           refutes the equalities on replay"
          r.Analyzer.array_name
      | Gcd_test.Reduced red ->
        if reported_dep then warn_symbolic_bounds acc ~r s1;
        if r.Analyzer.self_pair then begin
          (* A self dependence is a pair of distinct iterations: decompose
             by the first common level where they differ. *)
          let dep_found, undecided =
            verify_obligations acc ~cancel ~corrupt ~config ~r ~reported_dep p
              red ~include_all_eq:false
          in
          if dep_found && not reported_dep then
            emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
              "array '%s': a direction obligation has a verified witness but \
               the self pair was reported independent"
              r.Analyzer.array_name
          else if (not dep_found) && (not undecided) && reported_dep then
            if Option.is_some degraded then
              (* A degraded verdict only claims an over-approximation:
                 replay proving full independence confirms it was sound,
                 merely imprecise. *)
              emit acc ~severity:Sev_warning ~r ~code:"degraded"
                "array '%s': the degraded analysis assumed this self pair \
                 dependent; replay certifies it independent"
                r.Analyzer.array_name
            else
              emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
                "array '%s': every direction obligation is certified \
                 independent but the self pair was reported dependent"
                r.Analyzer.array_name
        end
        else begin
          let sys = red.Gcd_test.system in
          let budget = Budget.create ~cancel config.Analyzer.limits in
          let cas = Cascade.run ~budget ~fm_tighten:config.Analyzer.fm_tighten sys in
          (match cas.Cascade.verdict with
           | Cascade.Dependent w ->
             let x = Gcd_test.x_of_t red w in
             let x = if corrupt then corrupt_witness x else x in
             checked acc ~r ~code:"bad-witness" ~what:"dependence witness"
               (Certcheck.check_problem_witness x p);
             if not reported_dep then
               emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
                 "array '%s': a verified witness exists but the pair was \
                  reported independent"
                 r.Analyzer.array_name
           | Cascade.Independent cert ->
             let cert = if corrupt then corrupt_infeasible cert else cert in
             checked acc ~r ~code:"bad-certificate"
               ~what:"independence certificate"
               (Certcheck.check_infeasible ~nvars:sys.Consys.nvars
                  sys.Consys.rows cert);
             if reported_dep then
               if Option.is_some degraded then
                 emit acc ~severity:Sev_warning ~r ~code:"degraded"
                   "array '%s': the degraded analysis assumed this pair \
                    dependent; replay certifies it independent"
                   r.Analyzer.array_name
               else
                 emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
                   "array '%s': certified independent on replay but reported \
                    dependent"
                   r.Analyzer.array_name
           | Cascade.Unknown | Cascade.Exhausted _ when not reported_dep ->
             (* Independent via direction vectors (implicit branch and
                bound) while the plain query is out of budget: budgets
                are per query, and the direction cells cover the space —
                certify each one. *)
             let dep_found, _ =
               verify_obligations acc ~cancel ~corrupt ~config ~r
                 ~reported_dep p red ~include_all_eq:true
             in
             if dep_found then
               emit acc ~severity:Sev_error ~r ~code:"verdict-mismatch"
                 "array '%s': a direction obligation has a verified witness \
                  but the pair was reported independent"
                 r.Analyzer.array_name
           | Cascade.Unknown ->
             emit acc ~severity:Sev_warning ~r ~code:"fm-exhausted"
               "array '%s': the Fourier-Motzkin branch budget was \
                exhausted; the pair is assumed dependent, not certified"
               r.Analyzer.array_name
           | Cascade.Exhausted reason ->
             emit acc ~severity:Sev_warning ~r ~code:"degraded"
               "array '%s': replay exhausted the %s budget; the pair is \
                assumed dependent, not certified"
               r.Analyzer.array_name (Budget.reason_name reason));
          if oracle then
            match (cas.Cascade.verdict, Oracle.exhaustive sys) with
            | Cascade.Dependent _, Oracle.Infeasible ->
              emit acc ~severity:Sev_error ~r ~code:"oracle-mismatch"
                "array '%s': the cascade found the system feasible but \
                 exhaustive enumeration finds no point"
                r.Analyzer.array_name
            | Cascade.Independent _, Oracle.Feasible _ ->
              emit acc ~severity:Sev_error ~r ~code:"oracle-mismatch"
                "array '%s': the cascade certified infeasibility but \
                 exhaustive enumeration finds a point"
                r.Analyzer.array_name
            | _, (Oracle.Feasible _ | Oracle.Infeasible | Oracle.Out_of_scope)
              -> ()
        end)

let verify_pair acc ~cancel ~oracle ~corrupt ~config ((s1 : Affine.site), s2)
    (r : Analyzer.pair_report) =
  match r.Analyzer.outcome with
  | Analyzer.Constant claimed -> verify_constant acc ~r s1 s2 claimed
  | Analyzer.Assumed_dependent -> verify_assumed acc ~r s1 s2
  | Analyzer.Gcd_independent -> verify_gcd_independent acc ~corrupt ~r s1 s2
  | Analyzer.Tested t ->
    verify_tested acc ~cancel ~oracle ~corrupt ~config ~r s1 s2
      ~reported_dep:t.dependent ~degraded:t.degraded

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let verify_report ?(cancel = fun () -> false) ?(oracle = true)
    ?(corrupt = false) ~config pairs (report : Analyzer.report) =
  if List.length pairs <> List.length report.Analyzer.pair_reports then
    invalid_arg "Verify.verify_report: pair list does not match the report";
  let acc = { diags = []; ncerts = 0; nerrors = 0; nwarnings = 0 } in
  List.iter2 (verify_pair acc ~cancel ~oracle ~corrupt ~config) pairs
    report.Analyzer.pair_reports;
  {
    diagnostics = List.rev acc.diags;
    pairs = List.length pairs;
    certificates = acc.ncerts;
    errors = acc.nerrors;
    warnings = acc.nwarnings;
  }

let run ?(config = Analyzer.default_config) ?cancel ?oracle ?corrupt program =
  let { Analyzer.pairs; _ } = Analyzer.front_end config program in
  let report = Analyzer.analyze_sites ~config ?cancel pairs in
  verify_report ?cancel ?oracle ?corrupt ~config pairs report

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let severity_name = function Sev_error -> "error" | Sev_warning -> "warning"

let pp_diagnostic ~file fmt d =
  Format.fprintf fmt "%s:%a: %s: [%s] %s" file Loc.pp d.loc
    (severity_name d.severity) d.code d.message;
  match d.loc2 with
  | Some l -> Format.fprintf fmt " (second reference at %a)" Loc.pp l
  | None -> ()

let diagnostic_json d =
  Json_out.Obj
    ([
       ("severity", Json_out.Str (severity_name d.severity));
       ("code", Json_out.Str d.code);
       ("line", Json_out.Int d.loc.Loc.line);
       ("col", Json_out.Int d.loc.Loc.col);
     ]
     @ (match d.loc2 with
        | Some l ->
          [
            ("line2", Json_out.Int l.Loc.line);
            ("col2", Json_out.Int l.Loc.col);
          ]
        | None -> [])
     @ (match d.array_name with
        | Some a -> [ ("array", Json_out.Str a) ]
        | None -> [])
     @ [ ("message", Json_out.Str d.message) ])

let pp_text ~file fmt s =
  List.iter
    (fun d -> Format.fprintf fmt "%a@." (pp_diagnostic ~file) d)
    s.diagnostics;
  Format.fprintf fmt "%s: %d pairs, %d certificates checked; %d errors, %d warnings@."
    (if s.errors = 0 then "OK" else "FAIL")
    s.pairs s.certificates s.errors s.warnings

let to_json ~file s =
  let diag = diagnostic_json in
  Json_out.Obj
    [
      ("file", Json_out.Str file);
      ("pairs", Json_out.Int s.pairs);
      ("certificates", Json_out.Int s.certificates);
      ("errors", Json_out.Int s.errors);
      ("warnings", Json_out.Int s.warnings);
      ("diagnostics", Json_out.List (List.map diag s.diagnostics));
    ]
