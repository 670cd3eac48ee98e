(* The verification layer: the trusted certificate checker accepts
   everything the cascade produces, rejects corrupted evidence, and the
   cascade agrees with the exhaustive enumeration oracle. *)

open Dda_numeric
open Dda_core
open Dda_check
open Test_support

let z = Zint.of_int

let row coeffs rhs = Consys.row_of_ints coeffs rhs

(* ------------------------------------------------------------------ *)
(* Properties over random boxed systems                                *)
(* ------------------------------------------------------------------ *)

let prop_witness_checked =
  QCheck.Test.make ~name:"every dependent witness passes the trusted checker"
    ~count:800 Gen_sys.arb_boxed
    (fun boxed ->
       match (Cascade.run boxed.Gen_sys.sys).Cascade.verdict with
       | Cascade.Dependent w -> (
           match Certcheck.check_witness w boxed.Gen_sys.sys with
           | Ok () -> true
           | Error e -> QCheck.Test.fail_reportf "witness rejected: %s" e)
       | Cascade.Independent _ -> true
       | Cascade.Unknown | Cascade.Exhausted _ ->
         QCheck.Test.fail_reportf "unexpected inexact verdict")

let prop_certificate_checked =
  QCheck.Test.make
    ~name:"every independence certificate passes the trusted checker"
    ~count:800 Gen_sys.arb_boxed
    (fun boxed ->
       let sys = boxed.Gen_sys.sys in
       match (Cascade.run sys).Cascade.verdict with
       | Cascade.Independent cert -> (
           match
             Certcheck.check_infeasible ~nvars:sys.Consys.nvars sys.Consys.rows
               cert
           with
           | Ok () -> true
           | Error e -> QCheck.Test.fail_reportf "certificate rejected: %s" e)
       | Cascade.Dependent _ -> true
       | Cascade.Unknown | Cascade.Exhausted _ ->
         QCheck.Test.fail_reportf "unexpected inexact verdict")

let prop_certificate_checked_tighten =
  QCheck.Test.make
    ~name:"certificates from the tightened cascade pass the checker too"
    ~count:400 Gen_sys.arb_boxed
    (fun boxed ->
       let sys = boxed.Gen_sys.sys in
       match (Cascade.run ~fm_tighten:true sys).Cascade.verdict with
       | Cascade.Independent cert -> (
           match
             Certcheck.check_infeasible ~nvars:sys.Consys.nvars sys.Consys.rows
               cert
           with
           | Ok () -> true
           | Error e -> QCheck.Test.fail_reportf "certificate rejected: %s" e)
       | Cascade.Dependent _ | Cascade.Unknown | Cascade.Exhausted _ -> true)

let prop_cascade_vs_oracle =
  QCheck.Test.make
    ~name:"cascade verdicts agree with the exhaustive oracle" ~count:800
    Gen_sys.arb_boxed
    (fun boxed ->
       let sys = boxed.Gen_sys.sys in
       match (Oracle.exhaustive sys, (Cascade.run sys).Cascade.verdict) with
       | Oracle.Out_of_scope, _ ->
         QCheck.Test.fail_reportf "generated system out of oracle scope"
       | Oracle.Feasible _, Cascade.Independent _ ->
         QCheck.Test.fail_reportf "cascade: independent, oracle: feasible"
       | Oracle.Infeasible, Cascade.Dependent _ ->
         QCheck.Test.fail_reportf "cascade: dependent, oracle: infeasible"
       | _, _ -> true)

let prop_oracle_vs_brute =
  QCheck.Test.make ~name:"the oracle agrees with Gen_sys's brute force"
    ~count:500 Gen_sys.arb_boxed
    (fun boxed ->
       let truth = Gen_sys.brute_feasible boxed in
       match Oracle.exhaustive boxed.Gen_sys.sys with
       | Oracle.Feasible w ->
         truth && Consys.satisfies_all w boxed.Gen_sys.sys
       | Oracle.Infeasible -> not truth
       | Oracle.Out_of_scope ->
         QCheck.Test.fail_reportf "generated system out of oracle scope")

(* Extended GCD refutations: random equality-only problems. *)
let arb_eqs =
  QCheck.make
    ~print:(fun (nvars, eqs) ->
      Format.asprintf "%a" (Consys.pp ?names:None)
        (Consys.make ~nvars eqs))
    QCheck.Gen.(
      int_range 1 4 >>= fun nvars ->
      int_range 1 3 >>= fun m ->
      list_repeat m
        (list_repeat nvars (int_range (-4) 4) >>= fun coeffs ->
         int_range (-9) 9 >>= fun rhs ->
         return (row coeffs rhs))
      >>= fun eqs -> return (nvars, eqs))

let prop_gcd_refutation_checked =
  QCheck.Test.make
    ~name:"every extended-gcd refutation passes the trusted checker"
    ~count:800 arb_eqs
    (fun (nvars, eqs) ->
       let names = Array.init nvars (fun i -> Printf.sprintf "t%d" i) in
       let p =
         Problem.make ~names ~n1:nvars ~n2:0 ~nsym:0 ~ncommon:0 ~eqs ~ineqs:[]
       in
       match Gcd_test.run_eqs p with
       | Gcd_test.Independent cert -> (
           match Certcheck.check_eq_refutation cert ~nvars eqs with
           | Ok () -> true
           | Error e -> QCheck.Test.fail_reportf "refutation rejected: %s" e)
       | Gcd_test.Reduced _ -> true)

(* ------------------------------------------------------------------ *)
(* The checker rejects corrupted evidence                              *)
(* ------------------------------------------------------------------ *)

let infeasible_sys =
  (* x <= -1 and x >= 0: no integer point. *)
  Consys.make ~nvars:1 [ row [ 1 ] (-1); row [ -1 ] 0 ]

let test_rejects_bad_certificate () =
  let cert =
    match (Cascade.run infeasible_sys).Cascade.verdict with
    | Cascade.Independent c -> c
    | _ -> Alcotest.fail "expected independent"
  in
  (match
     Certcheck.check_infeasible ~nvars:1 infeasible_sys.Consys.rows cert
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "genuine certificate rejected: %s" e);
  (match
     Certcheck.check_infeasible ~nvars:1 infeasible_sys.Consys.rows
       (Cert.Refute (Cert.Hyp (-1)))
   with
   | Ok () -> Alcotest.fail "out-of-range hypothesis accepted"
   | Error _ -> ());
  (* A combination that does not cancel the variable is no refutation. *)
  match
    Certcheck.check_infeasible ~nvars:1 infeasible_sys.Consys.rows
      (Cert.Refute (Cert.Hyp 0))
  with
  | Ok () -> Alcotest.fail "non-contradictory derivation accepted"
  | Error _ -> ()

let test_rejects_bad_witness () =
  let sys = Consys.make ~nvars:2 [ row [ 1; 0 ] 5; row [ -1; -1 ] (-3) ] in
  (match Certcheck.check_witness [| z 2; z 4 |] sys with
   | Ok () -> ()
   | Error e -> Alcotest.failf "good witness rejected: %s" e);
  (match Certcheck.check_witness [| z 2 |] sys with
   | Ok () -> Alcotest.fail "short witness accepted"
   | Error _ -> ());
  match Certcheck.check_witness [| z 6; z 0 |] sys with
  | Ok () -> Alcotest.fail "violating witness accepted"
  | Error _ -> ()

let test_rejects_bad_refutation () =
  let eqs = [ row [ 2 ] 1 ] in
  let p =
    Problem.make ~names:[| "t0" |] ~n1:1 ~n2:0 ~nsym:0 ~ncommon:0 ~eqs
      ~ineqs:[]
  in
  let cert =
    match Gcd_test.run_eqs p with
    | Gcd_test.Independent c -> c
    | Gcd_test.Reduced _ -> Alcotest.fail "2x = 1 should be gcd-independent"
  in
  (match Certcheck.check_eq_refutation cert ~nvars:1 eqs with
   | Ok () -> ()
   | Error e -> Alcotest.failf "genuine refutation rejected: %s" e);
  match
    Certcheck.check_eq_refutation
      { cert with Cert.modulus = Zint.one }
      ~nvars:1 eqs
  with
  | Ok () -> Alcotest.fail "modulus 1 accepted"
  | Error _ -> ()

let test_split_semantics () =
  (* 2x <= 1 and -2x <= -1 has the rational point 1/2 but no integer
     point; without tightening the refutation needs an integer split. *)
  let sys = Consys.make ~nvars:1 [ row [ 2 ] 1; row [ -2 ] (-1) ] in
  let cert =
    Cert.Split
      {
        var = 0;
        bound = Zint.zero;
        (* x <= 0: doubling the cut and adding -2x <= -1 gives 0 <= -1. *)
        left = Cert.Refute (Cert.Comb [ (Zint.two, Cert.Cut 0); (Zint.one, Cert.Hyp 1) ]);
        (* x >= 1, i.e. -x <= -1: doubled plus 2x <= 1 gives 0 <= -1. *)
        right = Cert.Refute (Cert.Comb [ (Zint.two, Cert.Cut 0); (Zint.one, Cert.Hyp 0) ]);
      }
  in
  (match Certcheck.check_infeasible ~nvars:1 sys.Consys.rows cert with
   | Ok () -> ()
   | Error e -> Alcotest.failf "hand-built split certificate rejected: %s" e);
  (* Referencing a cut that is not on the path must fail. *)
  match
    Certcheck.check_infeasible ~nvars:1 sys.Consys.rows
      (Cert.Refute (Cert.Cut 0))
  with
  | Ok () -> Alcotest.fail "cut reference outside any split accepted"
  | Error _ -> ()

let test_oracle_corners () =
  (* Constant contradiction. *)
  (match Oracle.exhaustive (Consys.make ~nvars:1 [ row [ 0 ] (-2); row [ 1 ] 3; row [ -1 ] 0 ]) with
   | Oracle.Infeasible -> ()
   | _ -> Alcotest.fail "constant contradiction not detected");
  (* Unbounded variable. *)
  (match Oracle.exhaustive (Consys.make ~nvars:1 [ row [ 1 ] 3 ]) with
   | Oracle.Out_of_scope -> ()
   | _ -> Alcotest.fail "unbounded system should be out of scope");
  (* Empty box. *)
  match Oracle.exhaustive (Consys.make ~nvars:1 [ row [ 1 ] (-1); row [ -1 ] 0 ]) with
  | Oracle.Infeasible -> ()
  | _ -> Alcotest.fail "empty box should be infeasible"

(* ------------------------------------------------------------------ *)
(* End-to-end verification summaries                                   *)
(* ------------------------------------------------------------------ *)

let parse src = Dda_lang.Parser.parse_program src

let clean_prog =
  parse
    "for i = 1 to 10 do\n\
    \  a[i] = a[i + 10] + 3\n\
     end\n\
     for i = 1 to 10 do\n\
    \  b[i + 1] = b[i] + 3\n\
     end\n"

let test_verify_clean () =
  let s = Verify.run clean_prog in
  Alcotest.(check int) "no errors" 0 s.Verify.errors;
  Alcotest.(check int) "no warnings" 0 s.Verify.warnings;
  Alcotest.(check bool) "certificates were checked" true
    (s.Verify.certificates > 0)

let test_verify_corrupt () =
  let s = Verify.run ~corrupt:true clean_prog in
  Alcotest.(check bool) "corruption is caught" true (s.Verify.errors > 0);
  List.iter
    (fun (d : Verify.diagnostic) ->
       match d.Verify.severity with
       | Verify.Sev_error -> ()
       | Verify.Sev_warning -> Alcotest.fail "unexpected warning")
    s.Verify.diagnostics

let test_verify_non_affine () =
  let s =
    Verify.run (parse "for i = 1 to 10 do\n  a[i * i] = a[i] + 1\nend\n")
  in
  Alcotest.(check int) "no errors" 0 s.Verify.errors;
  Alcotest.(check bool) "non-affine warning" true
    (List.exists
       (fun (d : Verify.diagnostic) -> String.equal d.Verify.code "non-affine")
       s.Verify.diagnostics)

let test_verify_self_pair () =
  (* A self dependence (distinct iterations write a[2i] and a[i+3]):
     the obligations must find and certify the differing witness. *)
  let s = Verify.run (parse "for i = 1 to 9 do\n  a[2 * i] = a[i] + 1\nend\n") in
  Alcotest.(check int) "no errors" 0 s.Verify.errors

(* Replay out of step budget: [b]'s self pair is reported exactly
   independent, [c]'s degraded dependent. Each self pair gets one
   warning, naming the steps budget and worded by its verdict, and no
   [fm-exhausted]: Fourier-Motzkin's branch budget never ran out. *)
let test_verify_budget_warnings () =
  let config =
    { Analyzer.default_config with
      Analyzer.limits =
        { Budget.default_limits with Budget.max_steps = Some 5 } }
  in
  let s =
    Verify.run ~config
      (parse
         "for i = 1 to 10 do\n  b[2 * i] = b[i] + 3\nend\n\
          for i = 1 to 10 do\n  for j = 1 to 10 do\n    c[i] = c[i] + j\n\
         \  end\nend\n")
  in
  Alcotest.(check int) "no errors" 0 s.Verify.errors;
  let self_warnings name =
    List.filter_map
      (fun (d : Verify.diagnostic) ->
         if d.Verify.array_name = Some name && d.Verify.loc2 = None then
           Some (d.Verify.code, d.Verify.message)
         else None)
      s.Verify.diagnostics
  in
  Alcotest.(check (list (pair string string)))
    "independent self pair"
    [ ( "degraded",
        "array 'b': replaying a direction obligation exhausted the steps \
         budget; the independent verdict is not certified" ) ]
    (self_warnings "b");
  Alcotest.(check (list (pair string string)))
    "dependent self pair"
    [ ( "degraded",
        "array 'c': replaying a direction obligation exhausted the steps \
         budget; the dependent verdict is assumed, not certified" ) ]
    (self_warnings "c")

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "check"
    [
      qsuite "properties"
        [
          prop_witness_checked;
          prop_certificate_checked;
          prop_certificate_checked_tighten;
          prop_cascade_vs_oracle;
          prop_oracle_vs_brute;
          prop_gcd_refutation_checked;
        ];
      ( "checker",
        [
          Alcotest.test_case "rejects bad certificates" `Quick
            test_rejects_bad_certificate;
          Alcotest.test_case "rejects bad witnesses" `Quick
            test_rejects_bad_witness;
          Alcotest.test_case "rejects bad refutations" `Quick
            test_rejects_bad_refutation;
          Alcotest.test_case "split and cut semantics" `Quick
            test_split_semantics;
          Alcotest.test_case "oracle corners" `Quick test_oracle_corners;
        ] );
      ( "verify",
        [
          Alcotest.test_case "clean program" `Quick test_verify_clean;
          Alcotest.test_case "corrupt mode is caught" `Quick
            test_verify_corrupt;
          Alcotest.test_case "non-affine warning" `Quick
            test_verify_non_affine;
          Alcotest.test_case "self pair witnesses" `Quick
            test_verify_self_pair;
          Alcotest.test_case "budget warnings follow the verdict" `Quick
            test_verify_budget_warnings;
        ] );
    ]
