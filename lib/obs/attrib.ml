type stage =
  | Gcd
  | Svpc
  | Acyclic
  | Loop_residue
  | Fourier

let stage_name = function
  | Gcd -> "gcd"
  | Svpc -> "svpc"
  | Acyclic -> "acyclic"
  | Loop_residue -> "loop_residue"
  | Fourier -> "fourier"

let all_stages = [ Gcd; Svpc; Acyclic; Loop_residue; Fourier ]

let nstages = 5

let stage_index = function
  | Gcd -> 0
  | Svpc -> 1
  | Acyclic -> 2
  | Loop_residue -> 3
  | Fourier -> 4

type stage_stat = {
  calls : int;
  ns : int;
}

type snapshot = {
  stages : (stage * stage_stat) list;
  budget_steps : int;
}

(* [active] counts open windows process-wide: the inactive fast path in
   [time]/[add_steps] is this one atomic load, nothing domain-local. *)
let active = Atomic.make 0

type window = {
  mutable open_ : bool;
  calls : int array;
  ns : int array;
  mutable steps : int;
}

let window_key =
  Domain.DLS.new_key (fun () ->
      { open_ = false; calls = Array.make nstages 0; ns = Array.make nstages 0;
        steps = 0 })

let time_source = ref Clock.now

let set_time_source f = time_source := f

let collecting () =
  Atomic.get active > 0 && (Domain.DLS.get window_key).open_

(* A top-level function, not a closure over [w], [i] and [t0]: a timed
   call allocates nothing of its own. *)
let charge w i t0 =
  w.calls.(i) <- w.calls.(i) + 1;
  w.ns.(i) <- w.ns.(i) + (!time_source () - t0)

let time stage f =
  if Atomic.get active = 0 then f ()
  else begin
    let w = Domain.DLS.get window_key in
    if not w.open_ then f ()
    else begin
      let i = stage_index stage in
      let t0 = !time_source () in
      (* Charge on both return and escape: an exhaustion blowing out of
         a stage still spent the time. *)
      match f () with
      | v -> charge w i t0; v
      | exception e -> charge w i t0; raise e
    end
  end

let add_steps n =
  if Atomic.get active > 0 then begin
    let w = Domain.DLS.get window_key in
    if w.open_ then w.steps <- w.steps + n
  end

let read_snapshot w =
  {
    stages =
      List.map
        (fun s ->
           let i = stage_index s in
           (s, { calls = w.calls.(i); ns = w.ns.(i) }))
        all_stages;
    budget_steps = w.steps;
  }

let empty_snapshot =
  { stages = List.map (fun s -> (s, { calls = 0; ns = 0 })) all_stages;
    budget_steps = 0 }

let collect f =
  let w = Domain.DLS.get window_key in
  if w.open_ then
    (* Nested window: the outer one keeps collecting; report nothing
       here rather than double-charging or clobbering its counters. *)
    (f (), empty_snapshot)
  else begin
    Array.fill w.calls 0 nstages 0;
    Array.fill w.ns 0 nstages 0;
    w.steps <- 0;
    w.open_ <- true;
    ignore (Atomic.fetch_and_add active 1);
    let close () =
      w.open_ <- false;
      ignore (Atomic.fetch_and_add active (-1))
    in
    match f () with
    | v ->
      let snap = read_snapshot w in
      close ();
      (v, snap)
    | exception e ->
      close ();
      raise e
  end
