type 'a field = {
  name : string;
  value : 'a -> int;
  counters : Metrics.counter array;
}

let field ?(counters = []) name value =
  { name; value; counters = Array.of_list (List.map Metrics.counter counters) }

type 'a t = {
  span : string;
  calls : Metrics.counter;
  stage : Attrib.stage option;
  fields : 'a field list;
}

let make ~span ~calls fields =
  { span; calls = Metrics.counter calls; stage = None; fields }

let stage ~span s verdict =
  let counter what = "test." ^ Attrib.stage_name s ^ "." ^ what in
  { (make ~span ~calls:(counter "calls")
       [ field "verdict" ~counters:[ counter "independent" ] verdict ])
    with stage = Some s }

let rec count v = function
  | [] -> ()
  | f :: rest ->
    let n = Array.length f.counters in
    if n > 0 then begin
      let i = f.value v in
      if i >= 0 && i < n then Metrics.incr f.counters.(i)
    end;
    count v rest

let span_args p v args =
  let own = List.map (fun f -> (f.name, f.value v)) p.fields in
  match args with None -> own | Some args -> own @ args v

let run ?args p f =
  Metrics.incr p.calls;
  (* The span opens before and closes after the attribution window, so
     its duration covers the window's. *)
  let t0 = Trace.start () in
  match (match p.stage with None -> f () | Some s -> Attrib.time s f) with
  | v ->
    if t0 <> Trace.none then Trace.complete ~args:(span_args p v args) p.span t0;
    count v p.fields;
    v
  | exception e ->
    Trace.complete ~args:[ ("raised", 1) ] p.span t0;
    raise e
