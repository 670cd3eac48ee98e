open Dda_numeric

type test =
  | T_svpc
  | T_acyclic
  | T_loop_residue
  | T_fourier

let test_name = function
  | T_svpc -> "svpc"
  | T_acyclic -> "acyclic"
  | T_loop_residue -> "loop-residue"
  | T_fourier -> "fourier-motzkin"

let pp_test fmt t = Format.pp_print_string fmt (test_name t)

type verdict =
  | Independent of Cert.infeasible
  | Dependent of Zint.t array
  | Unknown
  | Exhausted of Budget.reason

type result = {
  verdict : verdict;
  decided_by : test;
}

let dependent sys w decided_by =
  assert (Consys.satisfies_all w sys);
  { verdict = Dependent w; decided_by }

let test_index = function
  | T_svpc -> 0
  | T_acyclic -> 1
  | T_loop_residue -> 2
  | T_fourier -> 3

let probe =
  Dda_obs.Probe.make ~span:"cascade" ~calls:"cascade.runs"
    [ Dda_obs.Probe.field "decided_by"
        ~counters:
          [ "cascade.decided.svpc"; "cascade.decided.acyclic";
            "cascade.decided.loop_residue"; "cascade.decided.fourier" ]
        (fun res -> test_index res.decided_by);
      Dda_obs.Probe.field "verdict"
        ~counters:
          [ "cascade.verdict.independent"; "cascade.verdict.dependent";
            "cascade.verdict.unknown"; "cascade.verdict.exhausted" ]
        (fun res ->
           match res.verdict with
           | Independent _ -> 0
           | Dependent _ -> 1
           | Unknown -> 2
           | Exhausted _ -> 3) ]

let run_inner ?budget ?(fm_tighten = false) (sys : Consys.t) =
  (* [stage] tracks how far the cascade got, so a budget blow-up can
     still report which test was running when the account ran out. *)
  let stage = ref T_svpc in
  try
    match Svpc.run ?budget sys with
    | Svpc.Infeasible cert -> { verdict = Independent cert; decided_by = T_svpc }
    | Svpc.Feasible box -> (
        match Bounds.sample box with
        | Some w -> dependent sys w T_svpc
        | None -> assert false (* Feasible boxes are consistent *))
    | Svpc.Partial (box, multi) -> (
        stage := T_acyclic;
        match Acyclic.run ?budget box multi with
        | Acyclic.Infeasible cert ->
          { verdict = Independent cert; decided_by = T_acyclic }
        | Acyclic.Feasible (box', elims) -> (
            (* The box point satisfies the residual system; replaying the
               eliminations extends it to the full variable set. *)
            match Bounds.sample box' with
            | Some base -> dependent sys (Acyclic.witness elims base) T_acyclic
            | None -> assert false)
        | Acyclic.Cycle (box', elims, core) -> (
            stage := T_loop_residue;
            match Loop_residue.run ?budget box' core with
            | Some (Loop_residue.Infeasible cert) ->
              { verdict = Independent cert; decided_by = T_loop_residue }
            | Some (Loop_residue.Feasible w) ->
              (* The potentials satisfy the box and the cyclic core; the
                 eliminated variables are filled in the same way. *)
              dependent sys (Acyclic.witness elims w) T_loop_residue
            | None -> (
                (* Back-up test on the full system, so any witness and any
                   certificate refer to the original rows directly. *)
                stage := T_fourier;
                match Fourier.run ?budget ~tighten:fm_tighten sys with
                | Fourier.Infeasible cert ->
                  { verdict = Independent cert; decided_by = T_fourier }
                | Fourier.Feasible w -> dependent sys w T_fourier
                | Fourier.Unknown -> { verdict = Unknown; decided_by = T_fourier }
                | Fourier.Exhausted r ->
                  { verdict = Exhausted r; decided_by = T_fourier })))
  with Budget.Exhausted r -> { verdict = Exhausted r; decided_by = !stage }

let run ?budget ?fm_tighten (sys : Consys.t) =
  Dda_obs.Probe.run probe (fun () -> run_inner ?budget ?fm_tighten sys)
