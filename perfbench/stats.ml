(* Order statistics over measured samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two closest ranks (numpy's
   default), over an already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* How many of [n] samples lie beyond quantile [q]. *)
let beyond n q = int_of_float (Float.floor ((float_of_int n *. (1. -. q)) +. 1e-9))

(* A tail percentile is only worth reporting when at least
   [min_beyond] samples lie beyond it; otherwise it is a single
   sample's whim. *)
let tail_quantile ?(min_beyond = 10) xs q =
  if beyond (Array.length xs) q < min_beyond then None else Some (quantile xs q)

(* The samples of each whole [width]-second window of a run, by the
   offset at which each sample completed; a trailing partial window
   is dropped. Medians over windows shrug off the bursts of
   interference a shared host injects into a few of them. *)
let by_window ~width ~ends values =
  let total = Array.fold_left Float.max 0. ends in
  let n = max 1 (int_of_float (Float.floor (total /. width))) in
  let buckets = Array.make n [] in
  Array.iteri
    (fun i e ->
      let k = int_of_float (Float.floor (e /. width)) in
      if k < n then buckets.(k) <- values.(i) :: buckets.(k))
    ends;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets
