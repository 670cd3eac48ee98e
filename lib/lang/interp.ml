exception Runtime_error of string * Loc.t

module Checked = Dda_numeric.Checked

type access = {
  array : string;
  indices : int list;
  role : [ `Read | `Write ];
  site : Loc.t;
  iter : (string * int) list;
  time : int;
}

type env = {
  scalars : (string, int) Hashtbl.t;
  memory : (string * int list, int) Hashtbl.t;
  inputs : (string, int) Hashtbl.t;
  mutable trace : access list;  (* reverse execution order *)
  mutable clock : int;
  mutable loops : (string * int) list;  (* innermost first *)
  mutable fuel : int;  (* negative: unlimited *)
  reorder : Loc.t -> int -> int array option;
      (* iteration-order hook: given a loop's location and trip count,
         an optional permutation of [0, n) to execute instead of
         sequential order *)
}

let record env array indices role site =
  env.trace <-
    {
      array;
      indices;
      role;
      site;
      iter = List.rev env.loops;
      time = env.clock;
    }
    :: env.trace;
  env.clock <- env.clock + 1

(* Values live in [Checked]'s range, the native ints less [min_int]:
   an operation whose exact result leaves it raises rather than wraps,
   so a traced run never shows an access the program does not make. *)
let overflow loc = raise (Runtime_error ("integer overflow", loc))

let rec eval env (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> n
  | Ast.Var v -> (
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
    Hashtbl.replace env.scalars v value
  | Ast.Assign (Ast.Larr (name, subs), e) ->
    (* Fortran order: subscripts, then the right-hand side, then the
       store. *)
    let indices = List.map (eval env) subs in
    let value = eval env e in
    record env name indices `Write s.sloc;
    Hashtbl.replace env.memory (name, indices) value
  | Ast.Read v ->
    let value = match Hashtbl.find_opt env.inputs v with Some n -> n | None -> 0 in
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
    let iterate value =
      Hashtbl.replace env.scalars var value;
      env.loops <- (var, value) :: env.loops;
      List.iter (exec env) body;
      env.loops <- List.tl env.loops
    in
    (* The trip count, and each next value of the loop variable, in
       the same range as every other value. *)
    let span x y = if Checked.sub_ok x y then x - y else overflow s.sloc in
    let trips d = if Checked.add_ok d 1 then d + 1 else overflow s.sloc in
    let count =
      if step > 0 then if hi < lo then 0 else trips (span hi lo / step)
      else if hi > lo then 0
      else trips (span lo hi / -step)
    in
    (match env.reorder s.sloc count with
     | Some perm ->
       if Array.length perm <> count then
         raise (Runtime_error ("reorder permutation has wrong length", s.sloc));
       Array.iter (fun k -> iterate (lo + (k * step))) perm
     | None ->
       (* Sequential fast path: identical to the pre-hook interpreter. *)
       let v = ref lo and more = ref true in
       while !more && if step > 0 then !v <= hi else !v >= hi do
         iterate !v;
         if Checked.add_ok !v step then v := !v + step else more := false
       done)

let no_reorder _ _ = None

let make_env ?(fuel = -1) ?(reorder = no_reorder) inputs =
  let env =
    {
      scalars = Hashtbl.create 16;
      memory = Hashtbl.create 256;
      inputs = Hashtbl.create 8;
      trace = [];
      clock = 0;
      loops = [];
      fuel;
      reorder;
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace env.inputs k v) inputs;
  env

let run ?(fuel = -1) ?(inputs = []) prog =
  let env = make_env ~fuel inputs in
  List.iter (exec env) prog;
  List.rev env.trace

let scalar_value ?(inputs = []) prog name =
  let env = make_env inputs in
  List.iter (exec env) prog;
  Hashtbl.find_opt env.scalars name

type state = {
  scalars : (string * int) list;
  memory : ((string * int list) * int) list;
}

let final_state ?(fuel = -1) ?(inputs = []) ?reorder prog =
  let env = make_env ~fuel ?reorder inputs in
  List.iter (exec env) prog;
  let scalars =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.scalars []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let memory =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.memory []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  ({ scalars; memory }, List.rev env.trace)
