open Dda_numeric

type bound = {
  row : Consys.row;
  subject : int;
}

type t = {
  names : string array;
  n1 : int;
  n2 : int;
  nsym : int;
  ncommon : int;
  eqs : Consys.row list;
  ineqs : bound list;
}

let nvars p = p.n1 + p.n2 + p.nsym

let ineq_rows p = List.map (fun b -> b.row) p.ineqs

let make ~names ~n1 ~n2 ~nsym ~ncommon ~eqs ~ineqs =
  let p = { names; n1; n2; nsym; ncommon; eqs; ineqs } in
  if Array.length names <> nvars p then invalid_arg "Problem.make: names length";
  if ncommon > min n1 n2 || ncommon < 0 then invalid_arg "Problem.make: ncommon";
  let check r =
    if Array.length r.Consys.coeffs <> nvars p then
      invalid_arg "Problem.make: row width"
  in
  List.iter check eqs;
  List.iter
    (fun b ->
       check b.row;
       if b.subject < 0 || b.subject >= nvars p then
         invalid_arg "Problem.make: bound subject")
    ineqs;
  p

let var1 p k =
  if k < 0 || k >= p.n1 then invalid_arg "Problem.var1";
  k

let var2 p k =
  if k < 0 || k >= p.n2 then invalid_arg "Problem.var2";
  p.n1 + k

let sym_var p k =
  if k < 0 || k >= p.nsym then invalid_arg "Problem.sym_var";
  p.n1 + p.n2 + k

let with_extra_ineqs p bounds =
  List.iter
    (fun b ->
       if Array.length b.row.Consys.coeffs <> nvars p then
         invalid_arg "Problem.with_extra_ineqs: row width")
    bounds;
  { p with ineqs = bounds @ p.ineqs }

let satisfies point p =
  List.for_all
    (fun (r : Consys.row) ->
       let acc = ref Zint.zero in
       Array.iteri (fun i c -> acc := Zint.add !acc (Zint.mul c point.(i))) r.coeffs;
       Zint.equal !acc r.rhs)
    p.eqs
  && List.for_all (fun b -> Consys.satisfies point b.row) p.ineqs

exception Unkeyable

(* A small value is read straight off the Zint: going through
   [Zint.to_int] would box [Some n] for every coefficient written. *)
let int_of_z z =
  if Zint.is_small z then Zint.to_int_exn z
  else
    match Zint.to_int z with
    | Some n -> n
    | None -> raise Unkeyable

(* Keys are built once per analyzed pair on the memoization hot path,
   so they are written into a single flat array instead of concatenated
   per-row lists. [write_row] returns the offset past the written row
   (coefficients then rhs). *)
let write_row a off (r : Consys.row) =
  let n = Array.length r.coeffs in
  for i = 0 to n - 1 do
    a.(off + i) <- int_of_z r.coeffs.(i)
  done;
  a.(off + n) <- int_of_z r.rhs;
  off + n + 1

(* Equality rows mean the same constraint under negation; written with
   the first non-zero coefficient positive. This makes a problem and
   its {!swap} of the mirror-image problem key identically. *)
let normalize_eq a off n =
  let rec first i =
    if i >= n then 0 else if a.(off + i) <> 0 then a.(off + i) else first (i + 1)
  in
  if first 0 < 0 then
    for i = off to off + n do
      a.(i) <- -a.(i)
    done

let write_eq a off (r : Consys.row) =
  let o = write_row a off r in
  normalize_eq a off (Array.length r.coeffs);
  o

(* The key layout, owned here: [tag] when given, the header (nvars,
   n1, n2, nsym, ncommon, neqs), the equality rows, nineqs, then the
   bound rows; every row is its nvars coefficients then its rhs. The
   GCD table's key is the untagged header and equality rows alone.
   {!Build_problem.key} writes the same layout through
   [write_key_tag], [write_key_header] and [write_key_nineqs]. *)
let key_length ~tagged ~nvars ~neqs ~nineqs =
  (if tagged then 1 else 0) + 7 + ((neqs + nineqs) * (nvars + 1))

let write_key_tag a tag =
  a.(0) <- tag;
  1

let write_key_header ~nvars ~n1 ~n2 ~nsym ~ncommon ~neqs a off =
  a.(off) <- nvars;
  a.(off + 1) <- n1;
  a.(off + 2) <- n2;
  a.(off + 3) <- nsym;
  a.(off + 4) <- ncommon;
  a.(off + 5) <- neqs;
  off + 6

let write_key_nineqs a off nineqs =
  a.(off) <- nineqs;
  off + 1

let write_eqs ?tag a p ~neqs =
  let off = match tag with Some t -> write_key_tag a t | None -> 0 in
  let o =
    ref
      (write_key_header ~nvars:(nvars p) ~n1:p.n1 ~n2:p.n2 ~nsym:p.nsym
         ~ncommon:p.ncommon ~neqs a off)
  in
  List.iter (fun r -> o := write_eq a !o r) p.eqs;
  !o

(* Per-domain scratch buffers for memo keys, one per exact length.
   Most keys are discarded right after a table hit, so the hot path
   borrows a reusable buffer instead of allocating; the buffer is only
   valid until the next scratch-key call of the same length on the
   same domain, and cache implementations copy before retaining. *)
type scratch_bufs = { mutable by_len : int array array }

let scratch_key = Domain.DLS.new_key (fun () -> { by_len = [||] })

(* Indexed by length, so borrowing allocates nothing ([||] marks a
   length not met yet; no key is empty). *)
let scratch n =
  let s = Domain.DLS.get scratch_key in
  if n >= Array.length s.by_len then begin
    let grown = Array.make (max (n + 1) (2 * Array.length s.by_len)) [||] in
    Array.blit s.by_len 0 grown 0 (Array.length s.by_len);
    s.by_len <- grown
  end;
  let a = s.by_len.(n) in
  if Array.length a = n then a
  else begin
    let a = Array.make n 0 in
    s.by_len.(n) <- a;
    a
  end

let fill_key_without_bounds a p ~neqs =
  ignore (write_eqs a p ~neqs);
  a

let key_without_bounds p =
  let neqs = List.length p.eqs in
  fill_key_without_bounds (Array.make (6 + (neqs * (nvars p + 1))) 0) p ~neqs

let key_without_bounds_scratch p =
  let neqs = List.length p.eqs in
  fill_key_without_bounds (scratch (6 + (neqs * (nvars p + 1)))) p ~neqs

let swap p =
  let nv = nvars p in
  (* old index -> new index: the two loop-variable blocks trade places,
     symbols stay in place. *)
  let remap i =
    if i < p.n1 then p.n2 + i
    else if i < p.n1 + p.n2 then i - p.n1
    else i
  in
  let map_row (r : Consys.row) =
    let coeffs = Array.make nv Zint.zero in
    Array.iteri (fun i c -> coeffs.(remap i) <- c) r.coeffs;
    { Consys.coeffs; rhs = r.rhs }
  in
  let names = Array.make nv "" in
  let strip_prime s =
    if String.length s > 0 && s.[String.length s - 1] = '\'' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  Array.iteri
    (fun i name ->
       let name =
         if i < p.n1 then name ^ "'"
         else if i < p.n1 + p.n2 then strip_prime name
         else name
       in
       names.(remap i) <- name)
    p.names;
  (* Keep each reference's bounds contiguous and in loop order, as
     [Build_problem] emits them, so mirror problems key identically. *)
  let block2, block1 =
    List.partition (fun (b : bound) -> b.subject >= p.n1 && b.subject < p.n1 + p.n2) p.ineqs
  in
  let map_bound (b : bound) = { row = map_row b.row; subject = remap b.subject } in
  {
    names;
    n1 = p.n2;
    n2 = p.n1;
    nsym = p.nsym;
    ncommon = p.ncommon;
    eqs = List.map map_row p.eqs;
    ineqs = List.map map_bound block2 @ List.map map_bound block1;
  }

let fill_key a ?tag p ~neqs ~nineqs =
  let o = ref (write_key_nineqs a (write_eqs ?tag a p ~neqs) nineqs) in
  List.iter (fun (b : bound) -> o := write_row a !o b.row) p.ineqs;
  a

let to_key ?tag p =
  let neqs = List.length p.eqs and nineqs = List.length p.ineqs in
  let tagged = Option.is_some tag in
  let a = Array.make (key_length ~tagged ~nvars:(nvars p) ~neqs ~nineqs) 0 in
  fill_key a ?tag p ~neqs ~nineqs

let to_key_scratch ?tag p =
  let neqs = List.length p.eqs and nineqs = List.length p.ineqs in
  let tagged = Option.is_some tag in
  let a = scratch (key_length ~tagged ~nvars:(nvars p) ~neqs ~nineqs) in
  fill_key a ?tag p ~neqs ~nineqs

let pp fmt p =
  let names = p.names in
  Format.fprintf fmt "@[<v>vars:";
  Array.iter (fun n -> Format.fprintf fmt " %s" n) names;
  Format.fprintf fmt "@,equalities:@,";
  List.iter
    (fun (r : Consys.row) ->
       Format.fprintf fmt "  %a (as =)@," (Consys.pp_row ~names) r)
    p.eqs;
  Format.fprintf fmt "bounds:@,";
  List.iter
    (fun b -> Format.fprintf fmt "  %a@," (Consys.pp_row ~names) b.row)
    p.ineqs;
  Format.fprintf fmt "@]"
