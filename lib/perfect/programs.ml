type spec = {
  name : string;
  lines : int;
  seed : int;
  mix : (Patterns.category * int) list;
}

(* Counts are the paper's Table 1 rows divided by 4 (rounded, with
   non-zero entries kept at >= 1), plus a sprinkle of symbolic nests
   sized from the Table 5 -> Table 7 growth. *)
let all =
  let open Patterns in
  [
    {
      name = "AP";
      lines = 6104;
      seed = 101;
      mix =
        [ (Constant, 58); (Gcd_indep, 22); (Svpc, 154); (Symbolic_mix, 6) ];
    };
    {
      name = "CS";
      lines = 18520;
      seed = 102;
      mix = [ (Constant, 12); (Svpc, 32); (Acyclic, 4); (Symbolic_mix, 4) ];
    };
    {
      name = "LG";
      lines = 2327;
      seed = 103;
      mix = [ (Constant, 1740); (Svpc, 18); (Symbolic_mix, 2) ];
    };
    {
      name = "LW";
      lines = 1237;
      seed = 104;
      mix = [ (Constant, 14); (Svpc, 8); (Acyclic, 10) ];
    };
    {
      name = "MT";
      lines = 3785;
      seed = 105;
      mix = [ (Constant, 12); (Svpc, 82); (Symbolic_mix, 2) ];
    };
    {
      name = "NA";
      lines = 3976;
      seed = 106;
      mix =
        [
          (Constant, 12);
          (Svpc, 170);
          (Acyclic, 50);
          (Loop_residue, 2);
          (Fourier, 2);
          (Symbolic_mix, 22);
        ];
    };
    {
      name = "OC";
      lines = 2739;
      seed = 107;
      mix = [ (Constant, 2); (Gcd_indep, 2); (Svpc, 10); (Symbolic_mix, 2) ];
    };
    {
      name = "SD";
      lines = 7607;
      seed = 108;
      mix =
        [
          (Constant, 238);
          (Svpc, 132);
          (Acyclic, 4);
          (Loop_residue, 2);
          (Fourier, 4);
        ];
    };
    {
      name = "SM";
      lines = 2759;
      seed = 109;
      mix = [ (Constant, 252); (Gcd_indep, 24); (Svpc, 66) ];
    };
    {
      name = "SR";
      lines = 3970;
      seed = 110;
      mix = [ (Constant, 420); (Svpc, 322); (Symbolic_mix, 2) ];
    };
    {
      name = "TF";
      lines = 2020;
      seed = 111;
      mix = [ (Constant, 200); (Gcd_indep, 2); (Svpc, 206); (Symbolic_mix, 4) ];
    };
    {
      name = "TI";
      lines = 484;
      seed = 112;
      mix = [ (Svpc, 2); (Acyclic, 10) ];
    };
    {
      name = "WS";
      lines = 3884;
      seed = 113;
      mix =
        [
          (Constant, 10);
          (Gcd_indep, 46);
          (Svpc, 94);
          (Acyclic, 2);
          (Fourier, 40);
          (Symbolic_mix, 2);
        ];
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* Seeded Fisher-Yates, so nests of different categories interleave the
   way real code mixes its loops. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* The nests are drawn in mix order into one buffer, nest [i] being
   its bytes from [starts.(i)] up to [starts.(i + 1)]; the shuffle
   permutes their indices, and the program is the nests in that order
   joined by newlines. *)
let source spec =
  let rng = Prng.create spec.seed in
  let n = List.fold_left (fun acc (_, count) -> acc + count) 0 spec.mix in
  let b = Buffer.create (64 * n) in
  let starts = Array.make (n + 1) 0 in
  let i = ref 0 in
  List.iter
    (fun (cat, count) ->
       for _ = 1 to count do
         Patterns.write b rng cat;
         incr i;
         starts.(!i) <- Buffer.length b
       done)
    spec.mix;
  let order = Array.init n Fun.id in
  shuffle rng order;
  let out = Bytes.create (Buffer.length b + max 0 (n - 1)) in
  let pos = ref 0 in
  Array.iteri
    (fun k j ->
       if k > 0 then begin
         Bytes.set out !pos '\n';
         incr pos
       end;
       let len = starts.(j + 1) - starts.(j) in
       Buffer.blit b starts.(j) out !pos len;
       pos := !pos + len)
    order;
  Bytes.unsafe_to_string out
