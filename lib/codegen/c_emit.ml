open Dda_lang

(* ------------------------------------------------------------------ *)
(* Interval analysis for array extents                                 *)
(* ------------------------------------------------------------------ *)

type interval = int * int

let hull (a, b) (c, d) = (min a c, max b d)

(* Interval evaluation of an expression under known loop-variable
   ranges. [None]: not boundable (unknown scalar, array read, division
   by an interval containing zero). *)
let rec ieval env (e : Ast.expr) : interval option =
  match e.desc with
  | Ast.Int n -> Some (n, n)
  | Ast.Var v -> List.assoc_opt v env
  | Ast.Neg a ->
    Option.map (fun (lo, hi) -> (-hi, -lo)) (ieval env a)
  | Ast.Aref _ -> None
  | Ast.Bin (op, a, b) -> (
      match (ieval env a, ieval env b) with
      | Some (al, ah), Some (bl, bh) -> (
          match op with
          | Ast.Add -> Some (al + bl, ah + bh)
          | Ast.Sub -> Some (al - bh, ah - bl)
          | Ast.Mul ->
            let c = [ al * bl; al * bh; ah * bl; ah * bh ] in
            Some (List.fold_left min max_int c, List.fold_left max min_int c)
          | Ast.Div ->
            if bl <= 0 && bh >= 0 then None
            else begin
              let c = [ al / bl; al / bh; ah / bl; ah / bh ] in
              Some (List.fold_left min max_int c, List.fold_left max min_int c)
            end)
      | _ -> None)

type array_info = {
  rank : int;
  dims : interval array;  (* index range per dimension *)
}

exception Reject of string

let max_cells = 4_000_000

(* Walk the program computing per-array index intervals; reject
   anything outside the backend's scope. *)
let analyze_arrays prog =
  let arrays : (string, array_info) Hashtbl.t = Hashtbl.create 8 in
  let note name subs env =
    let dims =
      List.map
        (fun sub ->
           match ieval env sub with
           | Some iv -> iv
           | None ->
             raise
               (Reject
                  (Printf.sprintf
                     "subscript of '%s' cannot be bounded at compile time" name)))
        subs
    in
    let dims = Array.of_list dims in
    match Hashtbl.find_opt arrays name with
    | None -> Hashtbl.replace arrays name { rank = Array.length dims; dims }
    | Some info ->
      if info.rank <> Array.length dims then
        raise (Reject (Printf.sprintf "array '%s' used with two ranks" name));
      Hashtbl.replace arrays name
        { info with dims = Array.mapi (fun i iv -> hull iv info.dims.(i)) dims }
  in
  let rec scan_expr env (e : Ast.expr) =
    match e.desc with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Neg a -> scan_expr env a
    | Ast.Bin (_, a, b) ->
      scan_expr env a;
      scan_expr env b
    | Ast.Aref (name, subs) ->
      note name subs env;
      List.iter (scan_expr env) subs
  in
  let rec scan_stmt env (s : Ast.stmt) =
    match s.sdesc with
    | Ast.Read v -> raise (Reject (Printf.sprintf "read(%s) is not supported" v))
    | Ast.Assign (Ast.Lvar _, e) -> scan_expr env e
    | Ast.Assign (Ast.Larr (name, subs), e) ->
      note name subs env;
      List.iter (scan_expr env) subs;
      scan_expr env e
    | Ast.If (c, t, el) ->
      scan_expr env c.lhs;
      scan_expr env c.rhs;
      List.iter (scan_stmt env) t;
      List.iter (scan_stmt env) el
    | Ast.For f ->
      scan_expr env f.lo;
      scan_expr env f.hi;
      Option.iter (scan_expr env) f.step;
      (match (ieval env f.lo, ieval env f.hi) with
       | Some lo_iv, Some hi_iv ->
         let var_iv = hull lo_iv hi_iv in
         List.iter (scan_stmt ((f.var, var_iv) :: env)) f.body
       | _ ->
         raise
           (Reject
              (Printf.sprintf "bounds of loop '%s' are not compile-time constants"
                 f.var)))
  in
  List.iter (scan_stmt []) prog;
  Hashtbl.iter
    (fun name info ->
       let cells =
         Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 info.dims
       in
       if cells > max_cells then
         raise (Reject (Printf.sprintf "array '%s' would need %d cells" name cells)))
    arrays;
  arrays

(* ------------------------------------------------------------------ *)
(* C emission                                                          *)
(* ------------------------------------------------------------------ *)

let scalar_names prog =
  let names = ref [] in
  let note v = if not (List.mem v !names) then names := v :: !names in
  let rec expr (e : Ast.expr) =
    match e.desc with
    | Ast.Int _ -> ()
    | Ast.Var v -> note v
    | Ast.Neg a -> expr a
    | Ast.Bin (_, a, b) ->
      expr a;
      expr b
    | Ast.Aref (_, subs) -> List.iter expr subs
  in
  Ast.iter_stmts
    (fun s ->
       match s.Ast.sdesc with
       | Ast.Assign (Ast.Lvar v, e) ->
         note v;
         expr e
       | Ast.Assign (Ast.Larr (_, subs), e) ->
         List.iter expr subs;
         expr e
       | Ast.Read v -> note v
       | Ast.If (c, _, _) ->
         expr c.lhs;
         expr c.rhs
       | Ast.For f ->
         note f.var;
         expr f.lo;
         expr f.hi;
         Option.iter expr f.step)
    prog;
  List.sort String.compare !names

let rec emit_expr buf arrays (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> Buffer.add_string buf (Printf.sprintf "%dLL" n)
  | Ast.Var v -> Buffer.add_string buf ("v_" ^ v)
  | Ast.Neg a ->
    Buffer.add_string buf "(-";
    emit_expr buf arrays a;
    Buffer.add_char buf ')'
  | Ast.Bin (op, a, b) ->
    Buffer.add_char buf '(';
    emit_expr buf arrays a;
    Buffer.add_string buf
      (match op with Ast.Add -> " + " | Ast.Sub -> " - " | Ast.Mul -> " * " | Ast.Div -> " / ");
    emit_expr buf arrays b;
    Buffer.add_char buf ')'
  | Ast.Aref (name, subs) -> emit_aref buf arrays name subs

and emit_aref buf arrays name subs =
  let info : array_info = Hashtbl.find arrays name in
  Buffer.add_string buf ("a_" ^ name);
  List.iteri
    (fun d sub ->
       let off, _ = info.dims.(d) in
       Buffer.add_char buf '[';
       emit_expr buf arrays sub;
       Buffer.add_string buf (Printf.sprintf " - (%dLL)]" off))
    subs

let relop_c = function
  | Ast.Req -> "=="
  | Ast.Rne -> "!="
  | Ast.Rlt -> "<"
  | Ast.Rle -> "<="
  | Ast.Rgt -> ">"
  | Ast.Rge -> ">="

let emit ?(parallel = fun _ -> false) prog =
  match analyze_arrays prog with
  | exception Reject reason -> Error reason
  | arrays ->
    let buf = Buffer.create 4096 in
    let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let scalars = scalar_names prog in
    out "#include <stdio.h>\n";
    out "typedef long long ll;\n\n";
    List.iter (fun v -> out "static ll v_%s = 0; static int set_%s = 0;\n" v v) scalars;
    let array_list =
      Hashtbl.fold (fun name info acc -> (name, info) :: acc) arrays []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter
      (fun (name, (info : array_info)) ->
         out "static ll a_%s" name;
         Array.iter (fun (lo, hi) -> out "[%d]" (hi - lo + 1)) info.dims;
         out ";\n")
      array_list;
    out "\nint main(void) {\n";
    let counter = ref 0 in
    let fresh prefix =
      incr counter;
      Printf.sprintf "%s%d" prefix !counter
    in
    let rec stmt indent (s : Ast.stmt) =
      let pad = String.make indent ' ' in
      match s.sdesc with
      | Ast.Read _ -> assert false (* rejected above *)
      | Ast.Assign (Ast.Lvar v, e) ->
        out "%sv_%s = " pad v;
        emit_expr buf arrays e;
        out "; set_%s = 1;\n" v
      | Ast.Assign (Ast.Larr (name, subs), e) ->
        out "%s" pad;
        emit_aref buf arrays name subs;
        out " = ";
        emit_expr buf arrays e;
        out ";\n"
      | Ast.If (c, t, el) ->
        out "%sif (" pad;
        emit_expr buf arrays c.lhs;
        out " %s " (relop_c c.rel);
        emit_expr buf arrays c.rhs;
        out ") {\n";
        List.iter (stmt (indent + 2)) t;
        if el <> [] then begin
          out "%s} else {\n" pad;
          List.iter (stmt (indent + 2)) el
        end;
        out "%s}\n" pad
      | Ast.For f ->
        let stepc =
          match f.step with
          | None -> 1
          | Some e -> (
              match Dda_passes.Expr_util.const_value e with
              | Some s when s <> 0 -> s
              | _ -> raise (Reject "non-constant loop step"))
        in
        (* Fortran semantics: bounds evaluated once; the loop variable
           keeps the last executed value (OpenMP lastprivate mirrors
           exactly that). *)
        let lo = fresh "_lo" and hi = fresh "_hi" and c = fresh "_c" in
        out "%s{\n" pad;
        out "%s  ll %s = " pad lo;
        emit_expr buf arrays f.lo;
        out ";\n";
        out "%s  ll %s = " pad hi;
        emit_expr buf arrays f.hi;
        out ";\n";
        if parallel s.sloc then begin
          (* Every scalar the body writes (inner loop variables,
             temporaries) is a global too: shared, the threads would
             overwrite each other's values mid-iteration. Each thread
             gets its own copy, starting from the pre-loop value, and
             the last iteration's copy is copied out. *)
          let written = ref [] in
          let note v =
            if v <> f.var && not (List.mem v !written) then
              written := v :: !written
          in
          Ast.iter_stmts
            (fun s ->
               match s.Ast.sdesc with
               | Ast.For g -> note g.var
               | Ast.Assign (Ast.Lvar v, _) -> note v
               | _ -> ())
            f.body;
          let vars vs = String.concat ", " (List.map (fun v -> "v_" ^ v) vs) in
          let written = List.rev !written in
          out "%s  #pragma omp parallel for lastprivate(%s)%s\n" pad
            (vars (f.var :: written))
            (if written = [] then ""
             else Printf.sprintf " firstprivate(%s)" (vars written))
        end;
        out "%s  for (ll %s = %s; %s %s %s; %s += %d) {\n" pad c lo c
          (if stepc > 0 then "<=" else ">=")
          hi c stepc;
        out "%s    v_%s = %s; set_%s = 1;\n" pad f.var c f.var;
        List.iter (stmt (indent + 4)) f.body;
        out "%s  }\n%s}\n" pad pad
    in
    (match List.iter (stmt 2) prog with
     | () ->
       (* Final-state dump, in Interp.final_state order. *)
       List.iter
         (fun v -> out "  if (set_%s) printf(\"%s=%%lld\\n\", v_%s);\n" v v v)
         scalars;
       List.iter
         (fun (name, (info : array_info)) ->
            let idx = Array.to_list (Array.mapi (fun d _ -> Printf.sprintf "_d%d" d) info.dims) in
            List.iteri
              (fun d v ->
                 let lo, hi = info.dims.(d) in
                 out "%s  for (ll %s = %d; %s <= %d; %s++)\n"
                   (String.make (2 * d) ' ') v lo v hi v)
              idx;
            let pad = String.make (2 * info.rank) ' ' in
            out "%s  { ll _v = a_%s" pad name;
            List.iteri
              (fun d v ->
                 let lo, _ = info.dims.(d) in
                 out "[%s - (%d)]" v lo)
              idx;
            out ";\n%s    if (_v != 0) { printf(\"%s\" " pad name;
            List.iter (fun _ -> out "\"[%%lld]\" ") idx;
            out "\"=%%lld\\n\"";
            List.iter (fun v -> out ", %s" v) idx;
            out ", _v); } }\n")
         array_list;
       out "  return 0;\n}\n";
       Ok (Buffer.contents buf)
     | exception Reject reason -> Error reason)

(* ------------------------------------------------------------------ *)
(* Interpreter-state rendering in the same format                      *)
(* ------------------------------------------------------------------ *)

let state_dump (st : Interp.state) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" name v))
    st.scalars;
  List.iter
    (fun ((name, idx), v) ->
       if v <> 0 then begin
         Buffer.add_string buf name;
         List.iter (fun i -> Buffer.add_string buf (Printf.sprintf "[%d]" i)) idx;
         Buffer.add_string buf (Printf.sprintf "=%d\n" v)
       end)
    st.memory;
  Buffer.contents buf
