(* Two-tier integers: a native-int fast path and a sign-magnitude
   bignum fallback.

   [Small v] holds |v| <= max_small (= max_int / 2) directly in a
   native int; [Big b] is the original little-endian base-2^15 limb
   representation and holds exactly the values the fast path cannot.
   The split is canonical — every value with magnitude at or below the
   guard bound is ALWAYS [Small], zero included — so [equal], [compare]
   and [hash] can dispatch on the constructor alone and never see the
   same value in two representations. Every operation that can shrink
   a magnitude (subtraction of like signs, division, gcd, parsing)
   demotes through the one smart constructor [mk_t].

   The guard bound max_small = max_int / 2 is chosen so the sum or
   difference of any two Small payloads still fits a native int,
   making the add/sub overflow check a plain range test. Base 2^15
   limbs keep every limb product plus carries well inside 63 bits. *)

type big = { sign : int; mag : int array }

type t =
  | Small of int
  | Big of big

let max_small = max_int / 2
let small_capacity = max_small

let base = 32768
let base_bits = 15

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned) helpers. All take/return canonical arrays.    *)
(* ------------------------------------------------------------------ *)

let mzero : int array = [||]

let mnorm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mis_zero a = Array.length a = 0

let mcompare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec scan i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else scan (i - 1) in
    scan (la - 1)

let madd a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land (base - 1);
    carry := s lsr base_bits
  done;
  mnorm r

(* Requires [a >= b]. *)
let msub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mnorm r

let mmul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mzero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land (base - 1);
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land (base - 1);
        carry := s lsr base_bits;
        incr k
      done
    done;
    mnorm r
  end

(* Multiply by a small non-negative int (< 2^45 is safe; callers stay
   far below that). *)
let mmul_small a d =
  if d = 0 || mis_zero a then mzero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 4) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * d) + !carry in
      r.(i) <- s land (base - 1);
      carry := s lsr base_bits
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land (base - 1);
      carry := !carry lsr base_bits;
      incr k
    done;
    mnorm r
  end

let madd_small a d =
  if d = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    Array.blit a 0 r 0 la;
    let carry = ref d in
    let i = ref 0 in
    while !carry <> 0 do
      let s = r.(!i) + !carry in
      r.(!i) <- s land (base - 1);
      carry := s lsr base_bits;
      incr i
    done;
    mnorm r
  end

(* Divide by a small positive int; returns quotient magnitude and the
   int remainder. *)
let mdivmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (mnorm q, !rem)

let mbits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let b = ref 0 and v = ref top in
    while !v > 0 do incr b; v := !v lsr 1 done;
    ((la - 1) * base_bits) + !b
  end

let mgetbit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

let mshl1_plus a bit =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  let carry = ref bit in
  for i = 0 to la - 1 do
    let s = (a.(i) lsl 1) lor !carry in
    r.(i) <- s land (base - 1);
    carry := s lsr base_bits
  done;
  r.(la) <- !carry;
  mnorm r

(* Schoolbook binary long division on magnitudes: adequate for the small
   operands dependence systems produce. Requires [b] non-zero. *)
let mdivmod a b =
  if mcompare a b < 0 then (mzero, a)
  else if Array.length b = 1 then begin
    let q, r = mdivmod_small a b.(0) in
    (q, if r = 0 then mzero else [| r |])
  end
  else begin
    let nbits = mbits a in
    let q = Array.make (Array.length a) 0 in
    let r = ref mzero in
    for i = nbits - 1 downto 0 do
      r := mshl1_plus !r (mgetbit a i);
      if mcompare !r b >= 0 then begin
        r := msub !r b;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mnorm q, !r)
  end

(* ------------------------------------------------------------------ *)
(* Representation plumbing.                                           *)
(* ------------------------------------------------------------------ *)

(* Values within a few hundred of zero — loop bounds, strides,
   subscript coefficients — dominate every workload; share one block
   per value instead of allocating a fresh [Small] each time. *)
let cache_radius = 256

let small_cache = Array.init ((2 * cache_radius) + 1) (fun i -> Small (i - cache_radius))

let small n =
  if n >= -cache_radius && n <= cache_radius then
    Array.unsafe_get small_cache (n + cache_radius)
  else Small n

let fits_small n = n >= -max_small && n <= max_small

(* [big_of_int] accepts any native int, [min_int] included. *)
let big_of_int n =
  let sign = if n > 0 then 1 else -1 in
  (* Work with negative residues so that [min_int] is handled. *)
  let n = if n > 0 then -n else n in
  let buf = Array.make 5 0 in
  let rec go n i =
    if n = 0 then i
    else begin
      buf.(i) <- -(n mod base);
      go (n / base) (i + 1)
    end
  in
  let len = go n 0 in
  { sign; mag = Array.sub buf 0 len }

(* The ONLY way a signed result is built from a magnitude: demotes to
   [Small] whenever the guard bound allows, keeping the representation
   canonical. A magnitude of <= 61 bits is exactly the [Small] range
   (max_small = 2^61 - 1). *)
let mk_t sign mag =
  if mis_zero mag then small 0
  else if mbits mag <= 61 then begin
    let v = ref 0 in
    for i = Array.length mag - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    small (if sign < 0 then - !v else !v)
  end
  else Big { sign; mag }

let of_int n = if fits_small n then small n else Big (big_of_int n)

let to_big = function
  | Small v -> if v = 0 then { sign = 0; mag = mzero } else big_of_int v
  | Big b -> b

let zero = small 0
let one = small 1
let minus_one = small (-1)
let two = small 2

let sign = function Small v -> Stdlib.compare v 0 | Big b -> b.sign
let is_zero = function Small 0 -> true | Small _ | Big _ -> false
let is_one = function Small 1 -> true | Small _ | Big _ -> false
let is_negative = function Small v -> v < 0 | Big b -> b.sign < 0
let is_positive = function Small v -> v > 0 | Big b -> b.sign > 0

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big x, Big y -> x.sign = y.sign && mcompare x.mag y.mag = 0
  | Small _, Big _ | Big _, Small _ -> false (* canonical: disjoint ranges *)

let compare a b =
  match (a, b) with
  | Small x, Small y -> Stdlib.compare x y
  | Big x, Big y ->
    if x.sign <> y.sign then Stdlib.compare x.sign y.sign
    else if x.sign >= 0 then mcompare x.mag y.mag
    else mcompare y.mag x.mag
  (* A canonical Big has magnitude beyond every Small: its sign wins. *)
  | Small _, Big y -> if y.sign > 0 then -1 else 1
  | Big x, Small _ -> if x.sign > 0 then 1 else -1

let hash = function
  | Small v -> (v * 0x9e3779b1) land max_int
  | Big b ->
    let h = ref (b.sign + 0x9e37) in
    Array.iter (fun limb -> h := (!h * 31) + limb) b.mag;
    !h land max_int

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_small = function Small _ -> true | Big _ -> false

(* ------------------------------------------------------------------ *)
(* Arithmetic.                                                        *)
(* ------------------------------------------------------------------ *)

(* Canonical values are already shared blocks; whenever the result of
   an operation is mathematically identical to an operand (or to the
   interned [zero]), return that block instead of rebuilding it. The
   analyzer's hot loops fold into zero-initialized coefficient arrays
   and combine mostly-zero sparse rows, so these identities fire on a
   large fraction of calls. *)

let neg = function
  | Small 0 as z -> z
  | Small v -> small (-v) (* |v| <= max_small < max_int: never wraps *)
  | Big b -> Big { b with sign = -b.sign }

let abs a =
  match a with
  | Small v -> if v < 0 then small (-v) else a
  | Big b -> if b.sign >= 0 then a else Big { b with sign = -b.sign }

let big_add (a : big) (b : big) =
  if a.sign = 0 then mk_t b.sign b.mag
  else if b.sign = 0 then mk_t a.sign a.mag
  else if a.sign = b.sign then mk_t a.sign (madd a.mag b.mag)
  else begin
    let c = mcompare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk_t a.sign (msub a.mag b.mag)
    else mk_t b.sign (msub b.mag a.mag)
  end

let add a b =
  match (a, b) with
  | Small 0, _ -> b
  | _, Small 0 -> a
  | Small x, Small y ->
    (* |x|, |y| <= max_small = max_int/2, so x + y never wraps. *)
    let s = x + y in
    if fits_small s then small s else Big (big_of_int s)
  | _ -> big_add (to_big a) (to_big b)

let sub a b =
  match (a, b) with
  | _, Small 0 -> a
  | Small x, Small y ->
    let s = x - y in
    if fits_small s then small s else Big (big_of_int s)
  | _ -> big_add (to_big a) (to_big (neg b))

let big_mul a b = mk_t (a.sign * b.sign) (mmul a.mag b.mag)

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> zero
  | Small 1, _ -> b
  | _, Small 1 -> a
  | Small x, Small y ->
    if x = 0 || y = 0 then zero
    else begin
      let p = x * y in
      (* [p / y = x] certifies no wrap: a wrapped product differs from
         the true one by a multiple of 2^63, which the small remainder
         of the division cannot absorb. *)
      if fits_small p && p / y = x then small p else big_mul (to_big a) (to_big b)
    end
  | _ -> big_mul (to_big a) (to_big b)

let mul_int a d =
  if d = 0 then zero
  else if d = 1 then a
  else
    match a with
    | Small _ -> mul a (of_int d)
    | Big b ->
      if d >= 0 && d < base then mk_t b.sign (mmul_small b.mag d)
      else mul a (of_int d)

let succ z = add z one
let pred z = sub z one

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
    (* Native [/] and [mod] are truncated division, exactly the
       contract; quotient and remainder magnitudes never exceed the
       operands', so both stay Small. *)
    (small (x / y), small (x mod y))
  | _ ->
    let a = to_big a and b = to_big b in
    if b.sign = 0 then raise Division_by_zero;
    let qm, rm = mdivmod a.mag b.mag in
    (mk_t (a.sign * b.sign) qm, mk_t a.sign rm)

let div_trunc a b =
  match (a, b) with
  | Small x, Small y -> small (x / y)
  | _ -> fst (divmod a b)

let rem a b =
  match (a, b) with
  | Small x, Small y -> small (x mod y)
  | _ -> snd (divmod a b)

let fdiv a b =
  match (a, b) with
  | _, Small 1 -> a
  | Small x, Small y ->
    let q = x / y and r = x mod y in
    (* [r <> 0] implies |q| < max_small (a full-magnitude quotient
       needs |y| = 1, which divides exactly), so q-1 stays in range. *)
    if r <> 0 && (r < 0) <> (y < 0) then small (q - 1) else small q
  | _ ->
    let q, r = divmod a b in
    (* Truncated division rounds toward zero; floor rounds toward -inf. *)
    if is_zero r || sign r = sign b then q else pred q

let cdiv a b =
  match (a, b) with
  | _, Small 1 -> a
  | Small x, Small y ->
    let q = x / y and r = x mod y in
    if r <> 0 && (r < 0) = (y < 0) then small (q + 1) else small q
  | _ ->
    let q, r = divmod a b in
    if is_zero r || sign r <> sign b then q else succ q

let divexact a b =
  match (a, b) with
  | _, Small 1 -> a
  | Small x, Small y when y <> 0 ->
    if x mod y <> 0 then failwith "Zint.divexact: inexact division";
    small (x / y)
  | _ ->
    let q, r = divmod a b in
    if not (is_zero r) then failwith "Zint.divexact: inexact division";
    q

let divides d n =
  match (d, n) with
  | Small 0, _ -> is_zero n
  | Small x, Small y -> y mod x = 0
  | _ -> if is_zero d then is_zero n else is_zero (rem n d)

let rec gcd_mag a b = if mis_zero b then a else gcd_mag b (snd (mdivmod a b))

let gcd a b =
  match (a, b) with
  | Small 0, _ -> abs b
  | _, Small 0 -> abs a
  | Small x, Small y ->
    let rec go a b = if b = 0 then a else go b (a mod b) in
    small (go (Stdlib.abs x) (Stdlib.abs y))
  | _ -> mk_t 1 (gcd_mag (to_big a).mag (to_big b).mag)

let ext_gcd a b =
  (* Invariants: r0 = a*x0 + b*y0, r1 = a*x1 + b*y1. *)
  let rec go r0 x0 y0 r1 x1 y1 =
    if is_zero r1 then (r0, x0, y0)
    else begin
      let q = div_trunc r0 r1 in
      go r1 x1 y1 (sub r0 (mul q r1)) (sub x0 (mul q x1)) (sub y0 (mul q y1))
    end
  in
  let g, x, y = go a one zero b zero one in
  if is_negative g then (neg g, neg x, neg y) else (g, x, y)

let lcm a b =
  if is_zero a || is_zero b then zero else abs (mul (divexact a (gcd a b)) b)

let pow b e =
  if e < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

(* ------------------------------------------------------------------ *)
(* Conversions.                                                       *)
(* ------------------------------------------------------------------ *)

let to_int = function
  | Small v -> Some v
  | Big z ->
    (* Canonical Big values can still fit a native int (magnitudes in
       (max_small, max_int], plus [min_int]); reconstruct and guard the
       only corner, [min_int] itself. *)
    let b = mbits z.mag in
    if b > 63 then None
    else begin
      let v = ref 0 and ok = ref true in
      (try
         for i = Array.length z.mag - 1 downto 0 do
           if !v > (max_int - z.mag.(i)) / base then begin ok := false; raise Exit end;
           v := (!v * base) + z.mag.(i)
         done
       with Exit -> ());
      if !ok then Some (if z.sign < 0 then - !v else !v)
      else if z.sign < 0 && b = 63 && mcompare z.mag (big_of_int Stdlib.min_int).mag = 0
      then Some Stdlib.min_int
      else None
    end

let to_int_exn = function
  | Small v -> v
  | z -> (
      match to_int z with
      | Some n -> n
      | None -> failwith "Zint.to_int_exn: value does not fit in an int")

let to_string = function
  | Small v -> string_of_int v
  | Big z ->
    let buf = Buffer.create 16 in
    let rec chunks m acc =
      if mis_zero m then acc
      else begin
        let q, r = mdivmod_small m 10000 in
        chunks q (r :: acc)
      end
    in
    (match chunks z.mag [] with
     | [] -> assert false
     | first :: rest ->
       if z.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Zint.of_string: empty string";
  let sgn, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= n then invalid_arg "Zint.of_string: missing digits";
  let mag = ref mzero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Zint.of_string: invalid digit";
    mag := madd_small (mmul_small !mag 10) (Char.code c - Char.code '0')
  done;
  mk_t sgn !mag

let pp fmt z = Format.pp_print_string fmt (to_string z)
