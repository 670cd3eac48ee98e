open Dda_numeric

type reason =
  | Steps
  | Rows
  | Coeff
  | Deadline
  | Injected

let reason_name = function
  | Steps -> "steps"
  | Rows -> "rows"
  | Coeff -> "coefficients"
  | Deadline -> "deadline"
  | Injected -> "injected"

type limits = {
  fm_depth : int;
  fm_branches : int;
  max_steps : int option;
  max_rows : int option;
  max_coeff_bits : int option;
}

let default_limits =
  {
    fm_depth = 32;
    fm_branches = 64;
    max_steps = None;
    max_rows = None;
    max_coeff_bits = None;
  }

type t = {
  limits : limits;
  cancel : unit -> bool;
  coeff_limit : Zint.t option;  (* 2^max_coeff_bits, precomputed *)
  mutable steps : int;
  mutable until_poll : int;  (* countdown to the next cancel poll *)
  mutable spent : reason option;
}

exception Exhausted of reason

let poll_interval = 64

let create ?(cancel = fun () -> false) limits =
  {
    limits;
    cancel;
    coeff_limit = Option.map (Zint.pow Zint.two) limits.max_coeff_bits;
    steps = 0;
    until_poll = poll_interval;
    spent = None;
  }

let unlimited () = create default_limits
let limits t = t.limits
let spent t = t.spent
let steps_used t = t.steps

let m_ex_steps = Dda_obs.Metrics.counter "budget.exhausted.steps"
let m_ex_rows = Dda_obs.Metrics.counter "budget.exhausted.rows"
let m_ex_coeff = Dda_obs.Metrics.counter "budget.exhausted.coefficients"
let m_ex_deadline = Dda_obs.Metrics.counter "budget.exhausted.deadline"
let m_ex_injected = Dda_obs.Metrics.counter "budget.exhausted.injected"

let m_exhausted = function
  | Steps -> m_ex_steps
  | Rows -> m_ex_rows
  | Coeff -> m_ex_coeff
  | Deadline -> m_ex_deadline
  | Injected -> m_ex_injected

let reason_code = function
  | Steps -> 0
  | Rows -> 1
  | Coeff -> 2
  | Deadline -> 3
  | Injected -> 4

(* [exhaust] fires once per spent budget ([recheck] re-raises without
   coming back here), so the counter is one-per-exhausted-query. *)
let exhaust t reason =
  t.spent <- Some reason;
  Dda_obs.Metrics.incr (m_exhausted reason);
  Dda_obs.Trace.instant "budget.exhausted"
    ~args:[ ("reason", reason_code reason); ("steps", t.steps) ];
  raise (Exhausted reason)

(* Sticky: once any dimension is spent, every later check re-raises so a
   stage cannot resume half-way through an exhausted query. *)
let recheck t =
  match t.spent with Some r -> raise (Exhausted r) | None -> ()

let tick ?(cost = 1) t =
  recheck t;
  t.steps <- t.steps + cost;
  (match t.limits.max_steps with
   | Some cap when t.steps > cap -> exhaust t Steps
   | Some _ | None -> ());
  t.until_poll <- t.until_poll - cost;
  if t.until_poll <= 0 then begin
    t.until_poll <- poll_interval;
    if t.cancel () then exhaust t Deadline
  end

let check_rows t n =
  recheck t;
  match t.limits.max_rows with
  | Some cap when n > cap -> exhaust t Rows
  | Some _ | None -> ()

let check_coeff t c =
  recheck t;
  match t.coeff_limit with
  | Some lim when Zint.compare (Zint.abs c) lim > 0 -> exhaust t Coeff
  | Some _ | None -> ()
