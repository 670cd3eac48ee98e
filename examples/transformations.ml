(* Loop transformations as clients of direction vectors: interchange
   and reversal legality on classic nests, and the dependence graph a
   transformation framework would consume.

   Run with: dune exec examples/transformations.exe *)

open Dda_lang
open Dda_core

(* Concrete vectors, not wildcard summaries: legality is conservative
   about "*". *)
let config =
  {
    Analyzer.default_config with
    Analyzer.prune = Direction.no_pruning;
    memo = Analyzer.Memo_simple;
  }

let nests =
  [
    ( "matmul (famously fully permutable)",
      "for i = 1 to 32 do\n\
      \  for j = 1 to 32 do\n\
      \    for k = 1 to 32 do\n\
      \      cc[i][j] = cc[i][j] + aa[i][k] * bb[k][j]\n\
      \    end\n\
      \  end\n\
       end" );
    ( "skewed stencil (interchange would reverse a dependence)",
      "for i = 2 to 32 do\n\
      \  for j = 2 to 32 do\n\
      \    sk[i][j] = sk[i - 1][j + 1] + 1\n\
      \  end\n\
       end" );
    ( "wavefront (interchange fine, neither loop reversible)",
      "for i = 1 to 32 do\n\
      \  for j = 1 to 32 do\n\
      \    wf[i][j] = wf[i - 1][j] + wf[i][j - 1]\n\
      \  end\n\
       end" );
  ]

let () =
  List.iter
    (fun (title, src) ->
       Format.printf "== %s ==@." title;
       let prog = Parser.parse_program src in
       let sites = Affine.extract prog in
       let report = Analyzer.analyze ~config prog in
       let table = Affine.loop_table sites in
       let loops = List.map fst table in
       let name lid = List.assoc lid table in
       List.iter
         (fun lid ->
            Format.printf "  reverse %s: %s@." (name lid)
              (if Dda_analysis.Transforms.reversal_legal report ~lid then "legal" else "illegal"))
         loops;
       (match loops with
        | a :: b :: _ ->
          Format.printf "  interchange %s<->%s: %s@." (name a) (name b)
            (if Dda_analysis.Transforms.interchange_legal report ~lid_a:a ~lid_b:b then "legal"
             else "illegal")
        | _ -> ());
       if List.length loops <= 3 then begin
         Format.printf "  legal orders:";
         List.iter
           (fun perm ->
              Format.printf " (%s)" (String.concat "," (List.map name perm)))
           (Dda_analysis.Transforms.legal_permutations report loops);
         Format.printf "@."
       end;
       Format.printf "@.")
    nests;
  (* The dependence graph of the skewed stencil, as DOT. *)
  let prog = Parser.parse_program (snd (List.nth nests 1)) in
  print_endline "-- dependence graph (Graphviz) of the skewed stencil --";
  print_string (Dda_analysis.Depgraph.to_dot (Analyzer.analyze ~config prog))
