type event = {
  name : string;
  ts : int;
  dur : int;
  tid : int;
  args : (string * int) list;
}

let dummy = { name = ""; ts = 0; dur = 0; tid = 0; args = [] }

(* Per-domain ring buffer. [total] counts every push; once [arr] has
   grown to [capacity] the ring wraps, overwriting the oldest events
   and counting the loss. *)
let capacity = 1 lsl 16

(* Ring overflow is silent at the trace layer (old events just fall
   off); the counter makes it visible on /metrics. *)
let m_dropped = Metrics.counter "trace.dropped"

type ring = {
  r_tid : int;
  mutable arr : event array;
  mutable len : int;  (* live events, <= capacity *)
  mutable next : int;  (* write position *)
  mutable lost : int;
  mutable gen : int;  (* registration generation, see [clear] *)
}

let on = Atomic.make false
let rings : ring list ref = ref []
let rings_lock = Mutex.create ()

(* [clear] bumps the generation instead of chasing down every domain's
   DLS slot: a stale ring re-registers itself (empty) on its next
   push. *)
let generation = Atomic.make 0

let ring_key =
  Domain.DLS.new_key (fun () ->
      {
        r_tid = (Domain.self () :> int);
        arr = Array.make 256 dummy;
        len = 0;
        next = 0;
        lost = 0;
        gen = -1;
      })

let my_ring () =
  let r = Domain.DLS.get ring_key in
  let g = Atomic.get generation in
  if r.gen <> g then begin
    r.len <- 0;
    r.next <- 0;
    r.lost <- 0;
    r.gen <- g;
    Mutex.protect rings_lock (fun () -> rings := r :: !rings)
  end;
  r

let push ev =
  let r = my_ring () in
  let n = Array.length r.arr in
  if r.len = n && n < capacity then begin
    (* Grow (amortized) up to the ring capacity, unrolling so the
       oldest event lands at index 0 — [next] may have wrapped, and
       leaving it at 0 would overwrite the oldest events while the
       grown tail stayed [dummy]. *)
    let bigger = Array.make (min capacity (n * 2)) dummy in
    for k = 0 to n - 1 do
      bigger.(k) <- r.arr.((r.next + k) mod n)
    done;
    r.arr <- bigger;
    r.next <- n
  end;
  let n = Array.length r.arr in
  r.arr.(r.next) <- ev;
  r.next <- (r.next + 1) mod n;
  if r.len < n then r.len <- r.len + 1
  else begin
    r.lost <- r.lost + 1;
    Metrics.incr m_dropped
  end

let enable () = Atomic.set on true
let disable () = Atomic.set on false

let none = min_int

let start () = if Atomic.get on then Clock.now () else none

let complete ?(args = []) name t0 =
  if t0 <> none && Atomic.get on then
    push
      {
        name;
        ts = t0;
        dur = Clock.now () - t0;
        tid = (Domain.self () :> int);
        args;
      }

let wrap ~name ~args f =
  let t0 = start () in
  if t0 = none then f ()
  else
    match f () with
    | v ->
      complete ~args:(args v) name t0;
      v
    | exception e ->
      complete ~args:[ ("raised", 1) ] name t0;
      raise e

let instant ?(args = []) name =
  if Atomic.get on then
    push
      { name; ts = Clock.now (); dur = -1; tid = (Domain.self () :> int); args }

let clear () =
  Mutex.protect rings_lock (fun () ->
      ignore (Atomic.fetch_and_add generation 1);
      rings := [])

let snapshot_rings () = Mutex.protect rings_lock (fun () -> !rings)

let events () =
  let out = ref [] in
  List.iter
    (fun r ->
       (* oldest first: the ring's write position points at it once full *)
       let n = Array.length r.arr in
       let first = if r.len < n then 0 else r.next in
       for k = r.len - 1 downto 0 do
         out := r.arr.((first + k) mod n) :: !out
       done)
    (snapshot_rings ());
  List.stable_sort
    (fun a b -> if a.tid <> b.tid then compare a.tid b.tid else compare a.ts b.ts)
    !out

let dropped () =
  List.fold_left (fun acc r -> acc + r.lost) 0 (snapshot_rings ())

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s

let add_args b args =
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_char b '"';
       escape b k;
       Buffer.add_string b "\":";
       Buffer.add_string b (string_of_int v))
    args;
  Buffer.add_char b '}'

let to_chrome_string () =
  let evs = events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  (* Name each track so Perfetto shows "domain N" rather than bare
     thread ids; domain 0 is the main/driver domain. *)
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  List.iter
    (fun tid ->
       sep ();
       Buffer.add_string b
         (Printf.sprintf
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
             \"args\":{\"name\":\"domain %d\"}}"
            tid tid))
    tids;
  List.iter
    (fun e ->
       sep ();
       Buffer.add_string b "{\"name\":\"";
       escape b e.name;
       Buffer.add_string b "\",\"cat\":\"dda\",\"ph\":\"";
       Buffer.add_string b (if e.dur < 0 then "i" else "X");
       Buffer.add_string b "\"";
       if e.dur >= 0 then
         Buffer.add_string b (Printf.sprintf ",\"dur\":%d" e.dur)
       else Buffer.add_string b ",\"s\":\"t\"";
       Buffer.add_string b
         (Printf.sprintf ",\"ts\":%d,\"pid\":1,\"tid\":%d,\"args\":" e.ts e.tid);
       add_args b e.args;
       Buffer.add_char b '}')
    evs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string ()))
