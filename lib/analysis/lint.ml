open Dda_lang
open Dda_core
open Dda_check
module Metrics = Dda_obs.Metrics

type result = {
  prepared : Ast.program;
  sites : Affine.site list;
  report : Analyzer.report;
  summary : Summary.t;
  findings : Verify.diagnostic list;
  errors : int;
  warnings : int;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let c_flow = Metrics.counter "lint.deps.flow"
let c_anti = Metrics.counter "lint.deps.anti"
let c_output = Metrics.counter "lint.deps.output"
let c_input = Metrics.counter "lint.deps.input"
let c_doall = Metrics.counter "lint.loops.doall"
let c_vectorizable = Metrics.counter "lint.loops.vectorizable"
let c_reduction = Metrics.counter "lint.loops.reduction"
let c_serial = Metrics.counter "lint.loops.serial"
let c_races = Metrics.counter "lint.findings.races"
let c_unproven = Metrics.counter "lint.findings.unproven"

let record_metrics summary ~errors ~warnings =
  List.iter
    (fun (e : Classify.edge) ->
       Metrics.incr
         (match e.kind with
          | Analyzer.Flow -> c_flow
          | Analyzer.Anti -> c_anti
          | Analyzer.Output -> c_output
          | Analyzer.Input -> c_input))
    summary.Summary.edges;
  List.iter
    (fun (li : Summary.loop_info) ->
       Metrics.incr
         (match li.verdict with
          | Summary.Doall -> c_doall
          | Summary.Vectorizable -> c_vectorizable
          | Summary.Reduction -> c_reduction
          | Summary.Serial -> c_serial))
    summary.Summary.loops;
  Metrics.add c_races errors;
  Metrics.add c_unproven warnings

(* ------------------------------------------------------------------ *)
(* Annotation checking                                                 *)
(* ------------------------------------------------------------------ *)

let iter_string iters =
  Printf.sprintf "(%s)"
    (String.concat ","
       (Array.to_list (Array.map Dda_numeric.Zint.to_string iters)))

let edge_evidence (b : Summary.blocking) =
  let e = b.edge in
  let vec =
    match e.vector with
    | Some v -> Printf.sprintf " %s" (Direction.vector_to_string v)
    | None -> " (conservative)"
  in
  let wit =
    match b.witness with
    | Some w ->
      Printf.sprintf "; witness iterations %s and %s" (iter_string w.iter1)
        (iter_string w.iter2)
    | None -> ""
  in
  Printf.sprintf "carried %s dependence on array '%s'%s%s"
    (Analyzer.dep_kind_name e.kind) e.pair.array_name vec wit

(* One finding per annotated non-DOALL loop: an error when some exact
   evidence establishes a race, else a warning that the annotation is
   unproven. *)
let check_annotations (summary : Summary.t) =
  let findings = ref [] in
  let emit severity ~loc ~loc2 ~array_name ~code message =
    findings :=
      { Verify.severity; loc; loc2; array_name; code; message } :: !findings
  in
  List.iter
    (fun (li : Summary.loop_info) ->
       if li.parallel_annot && li.verdict <> Summary.Doall then begin
         let exact_edges =
           List.filter (fun (b : Summary.blocking) -> b.edge.exact) li.blocking
         in
         let extra n =
           if n <= 0 then ""
           else Printf.sprintf " (and %d more blocking dependence%s)" n
               (if n = 1 then "" else "s")
         in
         match (exact_edges, li.scalar_blockers) with
         | b :: _, _ ->
           emit Verify.Sev_error ~loc:li.loc ~loc2:(Some b.edge.pair.loc1)
             ~array_name:(Some b.edge.pair.array_name) ~code:"parallel-race"
             (Printf.sprintf "parallel loop '%s' races: %s%s" li.var
                (edge_evidence b)
                (extra
                   (List.length li.blocking - 1
                    + List.length li.scalar_blockers)))
         | [], s :: _ ->
           emit Verify.Sev_error ~loc:li.loc ~loc2:None ~array_name:None
             ~code:"parallel-race"
             (Printf.sprintf
                "parallel loop '%s' races: scalar '%s' is written and read \
                 across iterations%s"
                li.var s
                (extra
                   (List.length li.blocking
                    + List.length li.scalar_blockers - 1)))
         | [], [] ->
           let b = List.hd li.blocking in
           emit Verify.Sev_warning ~loc:li.loc ~loc2:(Some b.edge.pair.loc1)
             ~array_name:(Some b.edge.pair.array_name)
             ~code:"parallel-unproven"
             (Printf.sprintf
                "parallel loop '%s' cannot be certified: %s blocks it only \
                 conservatively%s"
                li.var (edge_evidence b)
                (extra (List.length li.blocking - 1)))
       end)
    summary.loops;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let of_report ?(config = Analyzer.default_config) ?cancel ~prepared ~sites
    report =
  let pairs = Analyzer.site_pairs config sites in
  let summary = Summary.compute ~config ?cancel ~prepared ~pairs report in
  let findings = check_annotations summary in
  let errors =
    List.length
      (List.filter (fun d -> d.Verify.severity = Verify.Sev_error) findings)
  in
  let warnings = List.length findings - errors in
  record_metrics summary ~errors ~warnings;
  { prepared; sites; report; summary; findings; errors; warnings }

let run ?(config = Analyzer.default_config) ?cancel prog =
  let prepared =
    if config.Analyzer.run_pipeline then Dda_passes.Pipeline.run prog else prog
  in
  let sites = Affine.extract ~symbolic:config.Analyzer.symbolic prepared in
  let pairs = Analyzer.site_pairs config sites in
  let report = Analyzer.analyze_sites ~config ?cancel pairs in
  of_report ~config ?cancel ~prepared ~sites report

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let loop_line (li : Summary.loop_info) =
  let blockers =
    if li.blocking = [] && li.scalar_blockers = [] then ""
    else
      let arrays =
        List.sort_uniq String.compare
          (List.map
             (fun (b : Summary.blocking) -> b.edge.pair.array_name)
             li.blocking)
      in
      let parts =
        (if arrays = [] then []
         else
           [ Printf.sprintf "%d carried edge%s on %s"
               (List.length li.blocking)
               (if List.length li.blocking = 1 then "" else "s")
               (String.concat ", " (List.map (Printf.sprintf "'%s'") arrays));
           ])
        @
        if li.scalar_blockers = [] then []
        else
          [ Printf.sprintf "scalar%s %s"
              (if List.length li.scalar_blockers = 1 then "" else "s")
              (String.concat ", "
                 (List.map (Printf.sprintf "'%s'") li.scalar_blockers));
          ]
      in
      Printf.sprintf " — %s" (String.concat "; " parts)
  in
  Printf.sprintf "  loop %s (L%d, depth %d) at %s: %s%s%s%s" li.var li.lid
    li.depth (Loc.to_string li.loc)
    (Summary.verdict_name li.verdict)
    (if li.parallel_annot then " [annotated parallel]" else "")
    (if li.degraded then " [degraded evidence]" else "")
    blockers

let counts summary =
  List.fold_left
    (fun (d, v, r, s) (li : Summary.loop_info) ->
       match li.verdict with
       | Summary.Doall -> (d + 1, v, r, s)
       | Summary.Vectorizable -> (d, v + 1, r, s)
       | Summary.Reduction -> (d, v, r + 1, s)
       | Summary.Serial -> (d, v, r, s + 1))
    (0, 0, 0, 0) summary.Summary.loops

let to_text ~file res =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s: parallelism summary\n" file);
  List.iter
    (fun li -> Buffer.add_string buf (loop_line li ^ "\n"))
    res.summary.Summary.loops;
  List.iter
    (fun d ->
       Buffer.add_string buf
         (Format.asprintf "%a@." (Verify.pp_diagnostic ~file) d))
    res.findings;
  let d, v, r, s = counts res.summary in
  Buffer.add_string buf
    (Printf.sprintf
       "lint: %d loops: %d doall, %d vectorizable, %d reduction, %d serial; \
        %d errors, %d warnings\n"
       (List.length res.summary.Summary.loops)
       d v r s res.errors res.warnings);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The whole object is written straight into the render buffer
   ({!Json_out.render}), numbers and direction vectors included, so
   the returned string is its only sizeable allocation. *)

let add = Buffer.add_string

(* The second reference's keys are "2line" and "2col". *)
let write_line_col buf ~second (l : Loc.t) =
  add buf (if second then ",\"2line\":" else ",\"line\":");
  Json_out.write_int buf l.Loc.line;
  add buf (if second then ",\"2col\":" else ",\"col\":");
  Json_out.write_int buf l.Loc.col

(* Witness coordinates are JSON strings of their digits. *)
let write_coords buf a =
  Buffer.add_char buf '[';
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char buf ',';
    let z = a.(i) in
    if Dda_numeric.Zint.is_small z then begin
      Buffer.add_char buf '"';
      Json_out.write_int buf (Dda_numeric.Zint.to_int_exn z);
      Buffer.add_char buf '"'
    end
    else Json_out.write_string buf (Dda_numeric.Zint.to_string z)
  done;
  Buffer.add_char buf ']'

let write_blocking buf (b : Summary.blocking) =
  let e = b.edge in
  add buf "{\"array\":";
  Json_out.write_string buf e.pair.array_name;
  add buf ",\"kind\":\"";
  add buf (Analyzer.dep_kind_name e.kind);
  add buf "\",\"exact\":";
  Json_out.write_bool buf e.exact;
  (match e.vector with
   | Some v ->
     add buf ",\"vector\":\"";
     Direction.add_vector buf v;
     Buffer.add_char buf '"'
   | None -> ());
  write_line_col buf ~second:false e.pair.loc1;
  write_line_col buf ~second:true e.pair.loc2;
  (match b.witness with
   | Some (w : Summary.witness) ->
     add buf ",\"witness\":{\"iter1\":";
     write_coords buf w.iter1;
     add buf ",\"iter2\":";
     write_coords buf w.iter2;
     Buffer.add_char buf '}'
   | None -> ());
  Buffer.add_char buf '}'

let write_loop buf (li : Summary.loop_info) =
  add buf "{\"lid\":";
  Json_out.write_int buf li.lid;
  add buf ",\"var\":";
  Json_out.write_string buf li.var;
  write_line_col buf ~second:false li.loc;
  add buf ",\"depth\":";
  Json_out.write_int buf li.depth;
  add buf ",\"parallel_annot\":";
  Json_out.write_bool buf li.parallel_annot;
  add buf ",\"verdict\":\"";
  add buf (Summary.verdict_name li.verdict);
  add buf "\",\"degraded\":";
  Json_out.write_bool buf li.degraded;
  add buf ",\"blocking\":";
  Json_out.write_list buf write_blocking li.blocking;
  add buf ",\"scalar_blockers\":";
  Json_out.write_list buf Json_out.write_string li.scalar_blockers;
  Buffer.add_char buf '}'

let edge_counts (edges : Classify.edge list) =
  let count k =
    List.fold_left (fun n (e : Classify.edge) -> if e.kind = k then n + 1 else n) 0 edges
  in
  Json_out.Obj
    [
      ("flow", Json_out.Int (count Analyzer.Flow));
      ("anti", Json_out.Int (count Analyzer.Anti));
      ("output", Json_out.Int (count Analyzer.Output));
      ("input", Json_out.Int (count Analyzer.Input));
    ]

let to_json ~file res =
  let d, v, r, s = counts res.summary in
  let write_summary buf =
    add buf "{\"file\":";
    Json_out.write_string buf file;
    add buf ",\"loops\":";
    Json_out.write_list buf write_loop res.summary.Summary.loops;
    add buf ",\"edges\":";
    Json_out.write buf (edge_counts res.summary.Summary.edges);
    add buf ",\"verdicts\":";
    Json_out.write buf
      (Json_out.Obj
         [
           ("doall", Json_out.Int d);
           ("vectorizable", Json_out.Int v);
           ("reduction", Json_out.Int r);
           ("serial", Json_out.Int s);
         ]);
    add buf ",\"findings\":";
    Json_out.write buf
      (Json_out.List (List.map Verify.diagnostic_json res.findings));
    add buf ",\"errors\":";
    Json_out.write_int buf res.errors;
    add buf ",\"warnings\":";
    Json_out.write_int buf res.warnings;
    Buffer.add_char buf '}'
  in
  Json_out.Raw (Json_out.render write_summary)

(* ------------------------------------------------------------------ *)
(* SARIF                                                               *)
(* ------------------------------------------------------------------ *)

let sarif_rule id desc =
  Json_out.Obj
    [
      ("id", Json_out.Str id);
      ("shortDescription", Json_out.Obj [ ("text", Json_out.Str desc) ]);
    ]

let sarif_location ~file (l : Loc.t) =
  Json_out.Obj
    [
      ("physicalLocation",
       Json_out.Obj
         [
           ("artifactLocation", Json_out.Obj [ ("uri", Json_out.Str file) ]);
           ("region",
            Json_out.Obj
              [
                ("startLine", Json_out.Int l.Loc.line);
                ("startColumn", Json_out.Int l.Loc.col);
              ]);
         ]);
    ]

let sarif_result ~file (d : Verify.diagnostic) =
  Json_out.Obj
    ([
       ("ruleId", Json_out.Str d.code);
       ("level",
        Json_out.Str
          (match d.severity with
           | Verify.Sev_error -> "error"
           | Verify.Sev_warning -> "warning"));
       ("message", Json_out.Obj [ ("text", Json_out.Str d.message) ]);
       ("locations", Json_out.List [ sarif_location ~file d.loc ]);
     ]
     @
     match d.loc2 with
     | Some l ->
       [ ("relatedLocations", Json_out.List [ sarif_location ~file l ]) ]
     | None -> [])

let to_sarif ~file res =
  Json_out.Obj
    [
      ("version", Json_out.Str "2.1.0");
      ("$schema",
       Json_out.Str
         "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
          Schemata/sarif-schema-2.1.0.json");
      ("runs",
       Json_out.List
         [
           Json_out.Obj
             [
               ("tool",
                Json_out.Obj
                  [
                    ("driver",
                     Json_out.Obj
                       [
                         ("name", Json_out.Str "ddtest-lint");
                         ("rules",
                          Json_out.List
                            [
                              sarif_rule "parallel-race"
                                "a parallel-annotated loop has an exactly \
                                 established carried dependence";
                              sarif_rule "parallel-unproven"
                                "a parallel annotation is blocked only by \
                                 conservative or degraded evidence";
                            ]);
                       ]);
                  ]);
               ("results",
                Json_out.List
                  (List.map (sarif_result ~file) res.findings));
             ];
         ]);
    ]
