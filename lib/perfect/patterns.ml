type category =
  | Constant
  | Gcd_indep
  | Svpc
  | Acyclic
  | Loop_residue
  | Fourier
  | Symbolic_mix

let all_categories =
  [ Constant; Gcd_indep; Svpc; Acyclic; Loop_residue; Fourier; Symbolic_mix ]

let category_name = function
  | Constant -> "constant"
  | Gcd_indep -> "gcd"
  | Svpc -> "svpc"
  | Acyclic -> "acyclic"
  | Loop_residue -> "loop-residue"
  | Fourier -> "fourier"
  | Symbolic_mix -> "symbolic"

(* Arrays and bounds come from deliberately small pools: realistic
   programs repeat the same subscript shapes over and over, which is
   what makes the paper's memoization collapse 5,679 tests to 332.
   1-D and 2-D arrays use disjoint pools so ranks stay consistent
   program-wide. (Array names are not part of the memo key, so the
   pools add realism without adding uniqueness.) *)
let arrays = [ "a"; "b"; "c"; "u"; "v"; "w" ]
let arrays2 = [ "aa"; "bb"; "cc"; "uu" ]
let bounds = [ "100"; "n"; "n"; "n" ]  (* mostly the same symbolic n *)
let small_offsets = [ 1; 1; 1; 2 ]

(* Every program of the suite is generated afresh for each analysis
   (a stream item's text is its generator), so nests are written
   straight into one buffer: [put b template args] appends [template]
   with each ['$'] replaced by the next of [args]. Printf would
   interpret every format anew, and a string per nest would be copied
   again into the program. *)
let rec put_from b template start args =
  match String.index_from template start '$' with
  | i -> (
    Buffer.add_substring b template start (i - start);
    match args with
    | s :: rest ->
      Buffer.add_string b s;
      put_from b template (i + 1) rest
    | [] -> invalid_arg "Patterns.put: too few arguments")
  | exception Not_found ->
    Buffer.add_substring b template start (String.length template - start)

let put b template args = put_from b template 0 args

let small_ints = Array.init 100 string_of_int
let num n = if n >= 0 && n < 100 then small_ints.(n) else string_of_int n

let header b bound = if String.equal bound "n" then Buffer.add_string b "read(n)\n"

(* One nest in three, wrap in an enclosing loop whose variable is never
   used: the paper's motivating case for the improved memoization
   scheme and for unused-variable pruning of direction vectors. The
   nest's own draws come first: its arguments are evaluated before
   the wrapper draws. *)
let wrap_unused b rng template args =
  if Prng.int rng 3 = 0 then begin
    let v = Prng.choose rng [ "l"; "m2" ] in
    put b "for $ = 1 to 10 do\n" [ v ];
    put b template args;
    Buffer.add_string b "end\n"
  end
  else put b template args

(* a[C1] = a[C2] + 1 inside a loop: the "array constants" column. *)
let gen_constant b rng =
  let a = Prng.choose rng arrays in
  let bd = Prng.choose rng bounds in
  let c1 = Prng.range rng 1 3 and c2 = Prng.range rng 1 3 in
  header b bd;
  wrap_unused b rng "for i = 1 to $ do\n  $[$] = $[$] + 1\nend\n" [ bd; a; num c1; a; num c2 ]

(* Caught by the extended GCD step: stride parity, or coupled
   subscripts whose equations are jointly inconsistent (the paper's
   motivating class that per-dimension tests cannot see). *)
let gen_gcd_indep b rng =
  let bd = Prng.choose rng bounds in
  (* Coupled subscripts dominate, following Shen, Li and Yew's finding
     that they "appear frequently and cannot be analyzed accurately
     using traditional algorithms". *)
  match Prng.choose rng [ 0; 1; 1 ] with
  | 0 ->
    let a = Prng.choose rng arrays in
    let k = Prng.choose rng [ 2; 2; 2; 4 ] in
    let o = Prng.range rng 1 (k - 1) in
    header b bd;
    wrap_unused b rng "for i = 1 to $ do\n  $[$ * i] = $[$ * i + $] + 1\nend\n"
      [ bd; a; num k; a; num k; num o ]
  | _ ->
    (* i = i' and i = i' + o jointly inconsistent: only a coupled
       (whole-system) test proves independence. *)
    let a2 = Prng.choose rng arrays2 in
    let o = Prng.choose rng small_offsets in
    header b bd;
    wrap_unused b rng "for i = 1 to $ do\n  $[i][i] = $[i][i + $] + 1\nend\n"
      [ bd; a2; a2; num o ]

(* The bread-and-butter shapes: offsets, separable 2D, the paper's
   coupled-but-SVPC transpose, stencils. *)
let gen_svpc b rng =
  let a = Prng.choose rng arrays in
  let bd = Prng.choose rng bounds in
  let o1 = Prng.choose rng small_offsets and o2 = Prng.choose rng small_offsets in
  let plus v o = if o = 0 then v else v ^ " + " ^ num o in
  match Prng.int rng 5 with
  | 0 ->
    (* 1D offset pair; both orientations occur, as in real code (the
       paper's symmetrical-cases observation). *)
    let w, r = if Prng.bool rng then (plus "i" o1, "i") else ("i", plus "i" o1) in
    header b bd;
    wrap_unused b rng "for i = 1 to $ do\n  $[$] = $[$] + 1\nend\n" [ bd; a; w; a; r ]
  | 1 ->
    (* separable 2D stencil *)
    let a2 = Prng.choose rng arrays2 in
    header b bd;
    put b "for i = 1 to $ do\n  for j = 1 to $ do\n    $[$][j] = $[$][j + 1] + 1\n  end\nend\n"
      [ bd; bd; a2; plus "i" o1; a2; plus "i" o2 ]
  | 2 ->
    (* the paper's transpose-with-offsets (section 3.2) *)
    let a2 = Prng.choose rng arrays2 in
    header b bd;
    put b "for i = 1 to $ do\n  for j = 1 to $ do\n    $[i][j] = $[j + 10][i + 9]\n  end\nend\n"
      [ bd; bd; a2; a2 ]
  | 3 ->
    (* independent: offset beyond the (constant) range *)
    wrap_unused b rng "for i = 1 to 10 do\n  $[$] = $[i + $] + 1\nend\n"
      [ a; plus "i" o1; a; num (10 + Prng.choose rng [ 1; 1; 2 ]) ]
  | _ ->
    (* strided copy, same stride: SVPC after GCD substitution *)
    let k = Prng.choose rng [ 2; 3 ] in
    header b bd;
    wrap_unused b rng "for i = 1 to $ do\n  $[$ * i] = $[$ * i + $] + 1\nend\n"
      [ bd; a; num k; a; num k; num (k * o1) ]

(* Coupled subscripts i+j: after GCD the bounds become multi-variable
   but one-directional. *)
let gen_acyclic b rng =
  let a = Prng.choose rng arrays in
  let bd = Prng.choose rng bounds in
  let o = Prng.choose rng small_offsets in
  match Prng.int rng 3 with
  | 0 ->
    (* Triangular inner bound keeps a multi-variable (but
       one-directional) constraint in the reduced system. *)
    header b bd;
    put b "for i = 1 to $ do\n  for j = 1 to i do\n    $[i + j] = $[i + j + $] + 1\n  end\nend\n"
      [ bd; a; a; num o ]
  | 1 ->
    let a2 = Prng.choose rng arrays2 in
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = 1 to i do\n    $[i + j][j] = $[i + j + $][j] + 1\n  end\nend\n"
      [ bd; a2; a2; num o ]
  | _ ->
    (* Independent flavor: j <= i <= 40 pins i to its maximum and the
       offset then falls outside j's range — infeasibility the acyclic
       substitution discovers. *)
    put b "for i = 1 to 40 do\n  for j = 1 to i do\n    $[j] = $[j + $] + 1\n  end\nend\n"
      [ a; a; num (40 + o) ]

(* Anti-diagonal accesses under band bounds (j within a window around
   i): the residual system is a cycle of difference constraints with
   equal-magnitude coefficients. *)
let gen_loop_residue b rng =
  let a = Prng.choose rng arrays in
  let bd = Prng.choose rng bounds in
  let w = Prng.choose rng [ 2; 2; 3 ] in
  let o = Prng.choose rng small_offsets in
  match Prng.int rng 3 with
  | 0 ->
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = i - $ to i + $ do\n    $[i - j] = $[i - j + $] + 1\n  end\nend\n"
      [ bd; num w; num w; a; a; num o ]
  | 1 ->
    let a2 = Prng.choose rng arrays2 in
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = i - $ to i + $ do\n    $[j - i][i] = $[j - i + $][i] + 1\n  end\nend\n"
      [ bd; num w; num w; a2; a2; num o ]
  | _ ->
    (* Independent flavor: the anti-diagonal offset exceeds the band
       width, a negative cycle in the residue graph. *)
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = i - $ to i + $ do\n    $[i - j] = $[i - j + $] + 1\n  end\nend\n"
      [ bd; num w; num w; a; a; num ((2 * w) + 1 + o) ]

(* Unequal coefficients in a cyclic core: only Fourier-Motzkin
   applies. *)
let gen_fourier b rng =
  let a = Prng.choose rng arrays in
  let bd = Prng.choose rng bounds in
  let o = Prng.choose rng small_offsets in
  match Prng.int rng 2 with
  | 0 ->
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = i - 3 to i + 3 do\n    $[2 * i - j] = $[i + j + $] + 1\n  end\nend\n"
      [ bd; a; a; num o ]
  | _ ->
    header b bd;
    put b
      "for i = 1 to $ do\n  for j = i - 2 to i + 4 do\n    $[2 * i + j] = $[i + 2 * j + $] + 1\n  end\nend\n"
      [ bd; a; a; num o ]

(* Symbolic terms inside subscripts (paper section 8). *)
let gen_symbolic b rng =
  let a = Prng.choose rng arrays in
  match Prng.int rng 3 with
  | 0 ->
    (* the paper's own example *)
    put b "read(n)\nfor i = 1 to 10 do\n  $[i + n] = $[i + 2 * n + 1] + 3\nend\n" [ a; a ]
  | 1 ->
    (* provably independent whatever n is *)
    put b "read(n)\nfor i = 1 to 10 do\n  $[i + n] = $[i + n + $] + 3\nend\n"
      [ a; a; num (10 + Prng.choose rng [ 1; 1; 2 ]) ]
  | _ ->
    put b "read(n)\nfor i = 1 to n do\n  $[i + n] = $[i + n + $] + 1\nend\n"
      [ a; a; num (Prng.choose rng small_offsets) ]

let write b rng = function
  | Constant -> gen_constant b rng
  | Gcd_indep -> gen_gcd_indep b rng
  | Svpc -> gen_svpc b rng
  | Acyclic -> gen_acyclic b rng
  | Loop_residue -> gen_loop_residue b rng
  | Fourier -> gen_fourier b rng
  | Symbolic_mix -> gen_symbolic b rng

let generate rng cat =
  let b = Buffer.create 128 in
  write b rng cat;
  Buffer.contents b
