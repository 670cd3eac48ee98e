(* C back-end tests: the generated C is compiled with a real C compiler
   and executed; its final-state dump must equal the reference
   interpreter's. With OpenMP enabled and several threads, the loops
   the analysis marked parallel actually run concurrently — a racy
   (wrong) "parallel" verdict shows up as a divergent dump. *)

open Dda_lang
open Dda_codegen

let gcc_available = Sys.command "gcc --version > /dev/null 2>&1" = 0

let require_gcc () = if not gcc_available then Alcotest.skip ()

let read_all ic =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let compile_and_run ?(openmp = false) ?(threads = 1) c_src =
  let dir = Filename.temp_file "dda_cg" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
       let c_file = Filename.concat dir "prog.c" in
       let exe = Filename.concat dir "prog" in
       let oc = open_out c_file in
       output_string oc c_src;
       close_out oc;
       let flags = if openmp then "-fopenmp" else "" in
       let cmd =
         Printf.sprintf "gcc -O1 %s -o %s %s 2> %s/cc.err" flags
           (Filename.quote exe) (Filename.quote c_file) (Filename.quote dir)
       in
       if Sys.command cmd <> 0 then
         failwith ("C compilation failed:\n" ^ c_src);
       let run_cmd =
         Printf.sprintf "OMP_NUM_THREADS=%d %s" threads (Filename.quote exe)
       in
       let ic = Unix.open_process_in run_cmd in
       let output = read_all ic in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 -> output
       | _ -> failwith "generated program crashed")

let parallel_flags prog =
  let res = Dda_analysis.Lint.run prog in
  ( res.Dda_analysis.Lint.prepared,
    Dda_analysis.Summary.doall_loops res.Dda_analysis.Lint.summary )

let check_against_interp ?(openmp = false) ?(threads = 1) name prog =
  let prepared, parallel = parallel_flags prog in
  match C_emit.emit ~parallel prepared with
  | Error reason -> Alcotest.failf "%s: emit rejected: %s" name reason
  | Ok c_src ->
    let expected = C_emit.state_dump (fst (Interp.final_state prepared)) in
    let actual = compile_and_run ~openmp ~threads c_src in
    Alcotest.(check string) (name ^ ": C output equals interpreter state")
      expected actual

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let codegen_kernels =
  (* Kernels without read() — those have symbolic bounds the back end
     rejects. *)
  List.filter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       not (String.length k.source >= 4 && String.sub k.source 0 4 = "read"))
    Dda_perfect.Kernels.all

let test_kernels_sequential () =
  require_gcc ();
  List.iter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       check_against_interp k.name (Parser.parse_program k.source))
    codegen_kernels

let test_kernels_openmp () =
  require_gcc ();
  List.iter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       check_against_interp ~openmp:true ~threads:4 k.name
         (Parser.parse_program k.source))
    codegen_kernels

let test_pragma_placement () =
  let prog = Parser.parse_program "for i = 1 to 100 do\n  c[i] = a[i] + b[i]\nend" in
  let prepared, parallel = parallel_flags prog in
  (match C_emit.emit ~parallel prepared with
   | Ok src ->
     let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "pragma present" true
       (contains "#pragma omp parallel for lastprivate(v_i)" src)
   | Error e -> Alcotest.fail e);
  (* A serial loop gets no pragma. *)
  let prog2 = Parser.parse_program "for i = 2 to 100 do\n  s[i] = s[i-1] + 1\nend" in
  let prepared2, parallel2 = parallel_flags prog2 in
  match C_emit.emit ~parallel:parallel2 prepared2 with
  | Ok src ->
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "no pragma" false (contains "#pragma" src)
  | Error e -> Alcotest.fail e

let test_rejections () =
  let reject src =
    match C_emit.emit (Parser.parse_program src) with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "read rejected" true (reject "read(n)\nfor i = 1 to n do a[i] = 1 end");
  Alcotest.(check bool) "unbounded scalar subscript rejected" true
    (reject "t = 5\nread(t)\na[t] = 1" || reject "a[q] = 1");
  Alcotest.(check bool) "constant program accepted" false
    (reject "for i = 1 to 3 do a[i] = i end")

let test_fortran_loop_semantics () =
  require_gcc ();
  (* Last-executed value, zero-trip untouched, bounds evaluated once. *)
  check_against_interp "loop semantics"
    (Parser.parse_program
       "t = 7\n\
        for i = 5 to 1 do t = i end\n\
        for j = 1 to 4 do u = j end\n\
        m = 3\n\
        for k = 1 to m do m = 1 end");
  check_against_interp "negative indices"
    (Parser.parse_program "for i = 1 to 5 do a[0 - i] = i end")

(* A parallel loop's body writes scalars — inner loop variables,
   temporaries — that the C side keeps as globals. Shared between the
   threads, they race: one thread's subscript picks up another's inner
   index. This nest (a shrunk counterexample of the OpenMP property
   below) gave a wrong dump in about half the 4-thread runs while they
   were shared. *)
let test_private_scalars () =
  let prog =
    Parser.parse_program
      "for i = 1 to 64 do\n\
      \  t = i * 2\n\
      \  for j = 1 to 8 do\n\
      \    c[i][j] = a[i][j] + t\n\
      \  end\n\
       end"
  in
  let prepared, parallel = parallel_flags prog in
  (match C_emit.emit ~parallel prepared with
   | Ok src ->
     let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "inner scalars private" true
       (contains
          "#pragma omp parallel for lastprivate(v_i, v_t, v_j) firstprivate(v_t, v_j)"
          src)
   | Error e -> Alcotest.fail e);
  require_gcc ();
  let racy =
    Parser.parse_program
      "for i = 2 to 5 do\n\
      \  for j = 0 to 2 do\n\
      \    for k = 1 to 4 do\n\
      \      a[3 - j + k][-2 - 2 * i - 2 * j + 2 * k] = c[-1 + i + j - k][-2 - 2 * i - 2 * j] + 2\n\
      \    end\n\
      \  end\n\
       end"
  in
  for run = 1 to 5 do
    check_against_interp ~openmp:true ~threads:4
      (Printf.sprintf "shrunk nest, run %d" run)
      racy
  done

(* ------------------------------------------------------------------ *)
(* Property: random affine nests through gcc                           *)
(* ------------------------------------------------------------------ *)

let prop_codegen_matches_interp =
  QCheck.Test.make ~name:"generated C reproduces the interpreter state (gcc)"
    ~count:30 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       QCheck.assume gcc_available;
       let prepared, parallel = parallel_flags prog in
       match C_emit.emit ~parallel prepared with
       | Error _ -> QCheck.assume_fail ()
       | Ok c_src ->
         let expected = C_emit.state_dump (fst (Interp.final_state prepared)) in
         String.equal expected (compile_and_run c_src))

let prop_codegen_openmp_matches_interp =
  QCheck.Test.make
    ~name:"generated C with OpenMP (4 threads) reproduces the interpreter state"
    ~count:15 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       QCheck.assume gcc_available;
       let prepared, parallel = parallel_flags prog in
       match C_emit.emit ~parallel prepared with
       | Error _ -> QCheck.assume_fail ()
       | Ok c_src ->
         let expected = C_emit.state_dump (fst (Interp.final_state prepared)) in
         String.equal expected (compile_and_run ~openmp:true ~threads:4 c_src))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "codegen"
    [
      ( "unit",
        [
          Alcotest.test_case "kernels, sequential" `Quick test_kernels_sequential;
          Alcotest.test_case "kernels, openmp x4" `Quick test_kernels_openmp;
          Alcotest.test_case "pragma placement" `Quick test_pragma_placement;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "fortran loop semantics" `Quick test_fortran_loop_semantics;
          Alcotest.test_case "private scalars in parallel loops" `Quick test_private_scalars;
        ] );
      ( "property",
        [ qt prop_codegen_matches_interp; qt prop_codegen_openmp_matches_interp ] );
    ]
