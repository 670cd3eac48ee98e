let tick = Atomic.make 0

let default_source () = Atomic.fetch_and_add tick 1

(* [None] = the tick counter; boxed so installing a source is atomic. *)
let source : (unit -> int) option Atomic.t = Atomic.make None

let last = Atomic.make min_int

(* Enforce strict monotonicity over whatever the source returns. A
   top-level loop, not a closure over [raw]: a reading allocates
   nothing. *)
let rec bump raw =
  let l = Atomic.get last in
  let v = if raw > l then raw else l + 1 in
  if Atomic.compare_and_set last l v then v else bump raw

let now () =
  bump
    (match Atomic.get source with
     | None -> default_source ()
     | Some f -> f ())

let set_source f = Atomic.set source (Some f)
let use_tick_counter () = Atomic.set source None
