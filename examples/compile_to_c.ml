(* The payoff pipeline end to end: analyze a kernel, prove loops
   parallel, and emit C where those loops carry OpenMP pragmas.
   (The test suite actually compiles this output with gcc -fopenmp and
   checks the 4-thread execution against the reference interpreter.)

   Run with: dune exec examples/compile_to_c.exe *)

open Dda_lang

let () =
  let kernel = Option.get (Dda_perfect.Kernels.find "matmul") in
  print_endline ("# kernel: " ^ kernel.name);
  print_endline kernel.source;
  (* The pragmas come from the lint summary: only loops it certifies
     DOALL are emitted parallel. *)
  let res = Dda_analysis.Lint.run (Parser.parse_program kernel.source) in
  List.iter
    (fun (li : Dda_analysis.Summary.loop_info) ->
       Printf.printf "# loop %s: %s\n" li.var
         (if li.verdict = Dda_analysis.Summary.Doall then "parallel -> pragma"
          else "serial"))
    res.Dda_analysis.Lint.summary.Dda_analysis.Summary.loops;
  print_newline ();
  let parallel = Dda_analysis.Summary.is_doall res.Dda_analysis.Lint.summary in
  match Dda_codegen.C_emit.emit ~parallel res.Dda_analysis.Lint.prepared with
  | Ok c -> print_string c
  | Error reason -> prerr_endline ("codegen rejected: " ^ reason)
