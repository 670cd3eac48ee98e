(* A miniature parallelizing "compiler" pass: analyze classic numerical
   kernels and report, loop by loop, what may run in parallel — the
   client application the paper's introduction motivates.

   Run with: dune exec examples/parallelizer.exe *)

open Dda_lang

let kernels =
  [
    ( "vector add",
      "for i = 1 to 1000 do\n  c[i] = a[i] + b[i]\nend" );
    ( "prefix-style recurrence",
      "for i = 2 to 1000 do\n  a[i] = a[i - 1] + a[i]\nend" );
    ( "matrix multiply",
      "for i = 1 to 100 do\n\
      \  for j = 1 to 100 do\n\
      \    for k = 1 to 100 do\n\
      \      cc[i][j] = cc[i][j] + aa[i][k] * bb[k][j]\n\
      \    end\n\
      \  end\n\
       end" );
    ( "jacobi step (distinct arrays)",
      "for i = 2 to 99 do\n  fresh[i] = old[i - 1] + old[i + 1]\nend" );
    ( "gauss-seidel step (in place)",
      "for i = 2 to 99 do\n  g[i] = g[i - 1] + g[i + 1]\nend" );
    ( "red points of red-black sweep",
      "for i = 1 to 50 do\n  rb[2 * i] = rb[2 * i - 1] + rb[2 * i + 1]\nend" );
    ( "wavefront",
      "for i = 1 to 100 do\n\
      \  for j = 1 to 100 do\n\
      \    wf[i][j] = wf[i - 1][j] + wf[i][j - 1]\n\
      \  end\n\
       end" );
  ]

let () =
  List.iter
    (fun (name, src) ->
       Format.printf "== %s ==@." name;
       let res = Dda_analysis.Lint.run (Parser.parse_program src) in
       List.iter
         (fun (li : Dda_analysis.Summary.loop_info) ->
            Format.printf "  loop %-3s %s@." li.var
              (if li.verdict = Dda_analysis.Summary.Doall then "parallel"
               else "SERIAL (carries a dependence)"))
         res.Dda_analysis.Lint.summary.Dda_analysis.Summary.loops;
       Format.printf "@.")
    kernels
