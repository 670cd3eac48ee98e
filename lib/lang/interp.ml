exception Runtime_error of string * Loc.t

module Checked = Dda_numeric.Checked

type frame = {
  var : string;
  value : int;
  loop : Loc.t;
  instance : int;
}

type access = {
  array : string;
  indices : int list;
  role : [ `Read | `Write ];
  site : Loc.t;
  frames : frame list;
  time : int;
}

type env = {
  scalars : (string, int) Hashtbl.t;
  memory : (string * int list, int) Hashtbl.t;
  inputs : (string * int) list;
  emit : access -> unit;
  mutable clock : int;
  mutable frames : frame list;  (* innermost first *)
  mutable instances : int;  (* [for] statements executed so far *)
  mutable fuel : int;  (* negative: unlimited *)
}

let record env array indices role site =
  env.emit { array; indices; role; site; frames = env.frames; time = env.clock };
  env.clock <- env.clock + 1

(* Values live in [Checked]'s range, the native ints less [min_int]:
   an operation whose exact result leaves it raises rather than wraps,
   so a traced run never shows an access the program does not make. *)
let overflow loc = raise (Runtime_error ("integer overflow", loc))

let rec eval env (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> n
  | Ast.Var v -> (
      record env v [] `Read e.eloc;
      match Hashtbl.find_opt env.scalars v with Some n -> n | None -> 0)
  | Ast.Neg a ->
    let x = eval env a in
    if x = min_int then overflow e.eloc else -x
  | Ast.Bin (op, a, b) -> (
      let x = eval env a and y = eval env b in
      match op with
      | Ast.Add -> if Checked.add_ok x y then x + y else overflow e.eloc
      | Ast.Sub -> if Checked.sub_ok x y then x - y else overflow e.eloc
      | Ast.Mul -> if Checked.mul_ok x y then x * y else overflow e.eloc
      | Ast.Div ->
        if y = 0 then raise (Runtime_error ("division by zero", e.eloc))
        else if x = min_int && y = -1 then overflow e.eloc
        else x / y)
  | Ast.Aref (name, subs) ->
    let indices = List.map (eval env) subs in
    record env name indices `Read e.eloc;
    (match Hashtbl.find_opt env.memory (name, indices) with
     | Some n -> n
     | None -> 0)

let eval_cond env ({ rel; lhs; rhs } : Ast.cond) =
  let x = eval env lhs and y = eval env rhs in
  match rel with
  | Ast.Req -> x = y
  | Ast.Rne -> x <> y
  | Ast.Rlt -> x < y
  | Ast.Rle -> x <= y
  | Ast.Rgt -> x > y
  | Ast.Rge -> x >= y

let rec exec env (s : Ast.stmt) =
  if env.fuel = 0 then
    raise (Runtime_error ("execution budget exhausted", s.sloc));
  if env.fuel > 0 then env.fuel <- env.fuel - 1;
  match s.sdesc with
  | Ast.Assign (Ast.Lvar v, e) ->
    let value = eval env e in
    record env v [] `Write s.sloc;
    Hashtbl.replace env.scalars v value
  | Ast.Assign (Ast.Larr (name, subs), e) ->
    (* Fortran order: subscripts, then the right-hand side, then the
       store. *)
    let indices = List.map (eval env) subs in
    let value = eval env e in
    record env name indices `Write s.sloc;
    Hashtbl.replace env.memory (name, indices) value
  | Ast.Read v ->
    let value = Option.value ~default:0 (List.assoc_opt v env.inputs) in
    record env v [] `Write s.sloc;
    Hashtbl.replace env.scalars v value
  | Ast.If (cond, then_, else_) ->
    if eval_cond env cond then List.iter (exec env) then_
    else List.iter (exec env) else_
  | Ast.For { var; lo; hi; step; body; _ } ->
    let lo = eval env lo and hi = eval env hi in
    let step =
      match step with
      | None -> 1
      | Some e -> (
          match eval env e with
          | 0 -> raise (Runtime_error ("loop step is zero", s.sloc))
          | n -> n)
    in
    let instance = env.instances in
    env.instances <- instance + 1;
    (* The header writes the loop variable inside each iteration. *)
    let iterate value =
      Hashtbl.replace env.scalars var value;
      env.frames <- { var; value; loop = s.sloc; instance } :: env.frames;
      record env var [] `Write s.sloc;
      List.iter (exec env) body;
      env.frames <- List.tl env.frames
    in
    (* The trip count in the same range as every other value; each
       value of the loop variable then lies between [lo] and [hi]. *)
    let span x y = if Checked.sub_ok x y then x - y else overflow s.sloc in
    let trips d = if Checked.add_ok d 1 then d + 1 else overflow s.sloc in
    let count =
      if step > 0 then if hi < lo then 0 else trips (span hi lo / step)
      else if hi > lo then 0
      else trips (span lo hi / -step)
    in
    for k = 0 to count - 1 do
      iterate (lo + (k * step))
    done

let make_env ?(fuel = -1) ?(inputs = []) emit =
  { scalars = Hashtbl.create 16; memory = Hashtbl.create 256; inputs; emit;
    clock = 0; frames = []; instances = 0; fuel }

let iter ?fuel ?inputs f prog = List.iter (exec (make_env ?fuel ?inputs f)) prog

type state = {
  scalars : (string * int) list;
  memory : ((string * int list) * int) list;
}

let final_state ?fuel ?inputs prog =
  let trace = ref [] in
  let env = make_env ?fuel ?inputs (fun a -> if a.indices <> [] then trace := a :: !trace) in
  List.iter (exec env) prog;
  let sorted t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  ({ scalars = sorted env.scalars; memory = sorted env.memory }, List.rev !trace)

let run ?fuel ?inputs prog = snd (final_state ?fuel ?inputs prog)
