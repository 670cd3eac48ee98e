(* The benchmark's inputs and their expected answers.

   Every workload draws from a fixed, finite corpus whose answers are
   committed in expected/verdicts.txt; the run's seed only orders and
   draws from it. So any seed can be checked against the same file,
   every seed does the same amount of work per item on average, and the
   program under test sees nothing but program texts. *)

open Dda_core

(* ------------------------------------------------------------------ *)
(* PERFECT                                                             *)
(* ------------------------------------------------------------------ *)

let perfect_specs = Array.of_list Dda_perfect.Programs.all

(* The suite item [ddtest batch --stream --perfect] names
   [perfect:P:0]. *)
let perfect_name (spec : Dda_perfect.Programs.spec) = Printf.sprintf "perfect:%s:0" spec.name
let perfect_text = Dda_perfect.Programs.source

(* A round: the whole suite in suite order, rotated to start at the
   program the seed picks. Every round is the same work whatever the
   seed, and in the run's stream of rounds each program follows the
   same program, so the heap each item starts from hardly depends on
   the seed either. *)
let perfect_round ~seed =
  let n = Array.length perfect_specs in
  let k = ((seed mod n) + n) mod n in
  Array.init n (fun i -> perfect_specs.((k + i) mod n))

(* ------------------------------------------------------------------ *)
(* Fuzz corpus (repeated requests) and fresh pool (never-seen ones)    *)
(* ------------------------------------------------------------------ *)

let fuzz_seed = 4242
let fuzz_size = 300
let fresh_seed = 4243

(* Fresh programs are consumed in pool order, so their answers are
   committed as a running digest chain, checked every
   [fresh_checkpoint] programs. The pool is finite: a serve window
   ends early rather than run past it. *)
let fresh_checkpoint = 128
let fresh_pool = 40960

let fuzz_name i = Printf.sprintf "fuzz:mixed:%d:%d" fuzz_seed i
let fuzz_text i = Dda_perfect.Fuzz.program Mixed ~seed:fuzz_seed ~index:i
let fresh_text j = Dda_perfect.Fuzz.program Mixed ~seed:fresh_seed ~index:j
let fresh_name n = Printf.sprintf "fresh:%d" n

type request = Repeat of int | Fresh of int

(* The request sequence of a serve run: a uniform draw over the fuzz
   corpus. With [mixed], exactly one request in each block of four, at
   a position drawn from the seed, is a never-seen program instead, so
   the share of misses is the same in every stretch of every run. The
   second function hands out the next fresh program outside the draw
   (to complete a checkpoint). *)
let requests ~seed ~mixed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let fresh = ref 0 and slot = ref 0 and fresh_slot = ref (-1) in
  let next_fresh () =
    incr fresh;
    Fresh (!fresh - 1)
  in
  let next () =
    if !slot = 0 then fresh_slot := if mixed then Random.State.int rng 4 else -1;
    let here = !slot in
    slot := (here + 1) mod 4;
    if here = !fresh_slot then next_fresh () else Repeat (Random.State.int rng fuzz_size)
  in
  (next, next_fresh)

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let md5 s = Digest.to_hex (Digest.string s)

(* Verdicts only: the per-pair JSON of [ddtest analyze --json] (and of
   serve responses), never the statistics block, whose memo counters a
   pure speed-up may legitimately change. *)
let pairs_digest (pairs : Json_out.t) = md5 (Json_out.to_string pairs)

let report_pairs (r : Analyzer.report) =
  Json_out.List (List.map Json_out.pair r.Analyzer.pair_reports)

(* A PERFECT item's digest covers its rendered pairs and the linter's
   loop rulings. *)
let perfect_digest ~pairs ~lint = md5 (md5 pairs ^ md5 lint)

let chain prev d = md5 (prev ^ d)

(* An object of already rendered fields, byte for byte as
   [Json_out.to_string] renders it; so a digest of one field needs no
   second serialization. *)
let join fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, s) -> Json_out.to_string (Json_out.Str k) ^ ":" ^ s) fields)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

let expected_path = "perfbench/expected/verdicts.txt"

let load_expected path =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ name; digest ] -> Hashtbl.replace tbl name digest
          | _ -> ()
        done
      with End_of_file -> ());
  tbl

let matches expected name digest =
  match Hashtbl.find_opt expected name with
  | Some d -> String.equal d digest
  | None -> false

(* ------------------------------------------------------------------ *)
(* Serve responses                                                     *)
(* ------------------------------------------------------------------ *)

(* An analyze response's verdict digest, or why it is not an answer:
   an error, shed or quarantined response, or an unparseable line. *)
let response_digest line =
  match Json_out.of_string line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok resp -> (
      match (Json_out.member "ok" resp, Json_out.member "pairs" resp) with
      | Some (Json_out.Bool true), Some pairs -> Ok (pairs_digest pairs, resp)
      | _ -> (
          match Json_out.member "error" resp with
          | Some (Json_out.Str e) -> Error e
          | _ -> Error "response without pairs"))

let analyze_request ?(explain = false) text =
  Json_out.to_string
    (Json_out.Obj
       ([ ("op", Json_out.Str "analyze"); ("program", Json_out.Str text) ]
       @ if explain then [ ("explain", Json_out.Bool true) ] else []))
