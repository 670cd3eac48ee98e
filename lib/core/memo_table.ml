(* h(x) = size(x) + sum_i 2^i * x_i, computed with wrapping native
   arithmetic (deterministic; only the bucket index needs to be
   stable). *)
let hash_key key =
  let h = ref (Array.length key) in
  let p = ref 1 in
  Array.iter
    (fun x ->
       h := !h + (!p * x);
       p := !p * 2)
    key;
  !h land max_int

(* Every entry carries its key's hash: rehashing and merging move
   entries between bucket arrays without touching the keys again, and
   lookups compare hashes before walking the key. *)
type 'a entry = {
  key : int array;
  hash : int;
  value : 'a;
}

type 'a t = {
  mutable buckets : 'a entry list array;
  mutable size : int;
  mutable lookups : int;
  mutable hits : int;
}

type stats = {
  size : int;
  buckets : int;
  lookups : int;
  hits : int;
}

let load_factor = 2

let create ?(initial_buckets = 64) () : _ t =
  { buckets = Array.make initial_buckets []; size = 0; lookups = 0; hits = 0 }

let equal_key (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
      && (let n = Array.length a in
          let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
          go 0))

let rehash (t : _ t) =
  let old = t.buckets in
  t.buckets <- Array.make (Array.length old * 2) [];
  let nb = Array.length t.buckets in
  Array.iter
    (List.iter (fun e ->
         let b = e.hash mod nb in
         t.buckets.(b) <- e :: t.buckets.(b)))
    old

let find_entry (t : _ t) key h =
  List.find_opt
    (fun e -> e.hash = h && equal_key e.key key)
    t.buckets.(h mod Array.length t.buckets)

(* Lookups and hits are per-query events, so the process-wide counters
   stay jobs-invariant (each pair performs the same lookups whatever
   worker runs it). *)
let m_lookups = Dda_obs.Metrics.counter "memo.lookups"
let m_hits = Dda_obs.Metrics.counter "memo.hits"

let find (t : _ t) key =
  t.lookups <- t.lookups + 1;
  Dda_obs.Metrics.incr m_lookups;
  match find_entry t key (hash_key key) with
  | Some e ->
    t.hits <- t.hits + 1;
    Dda_obs.Metrics.incr m_hits;
    Some e.value
  | None -> None

(* [h] is the key's precomputed hash; the caller guarantees the key is
   not already present. *)
let add_new (t : _ t) key h value =
  let b = h mod Array.length t.buckets in
  t.buckets.(b) <- { key; hash = h; value } :: t.buckets.(b);
  t.size <- t.size + 1;
  if t.size > load_factor * Array.length t.buckets then rehash t

let add (t : _ t) key value =
  let h = hash_key key in
  let b = h mod Array.length t.buckets in
  if List.exists (fun e -> e.hash = h && equal_key e.key key) t.buckets.(b) then begin
    t.buckets.(b) <-
      List.filter (fun e -> not (e.hash = h && equal_key e.key key)) t.buckets.(b);
    t.size <- t.size - 1
  end;
  add_new t key h value

let find_or_add (t : _ t) key compute =
  Failpoint.hit "memo.find_or_add";
  t.lookups <- t.lookups + 1;
  Dda_obs.Metrics.incr m_lookups;
  let h = hash_key key in
  match find_entry t key h with
  | Some e ->
    t.hits <- t.hits + 1;
    Dda_obs.Metrics.incr m_hits;
    (e.value, true)
  | None ->
    (* Copy before computing: the caller may have handed us a scratch
       buffer ({!Problem.to_key_scratch}) that [compute] itself reuses
       for nested lookups. [compute] may raise (budget exhaustion
       mid-computation, injected faults): nothing is stored then, so
       the table never caches a half-computed value. *)
    let key = Array.copy key in
    let v = compute () in
    add_new t key h v;
    (v, false)

let iter f (t : _ t) =
  Array.iter (List.iter (fun e -> f e.key e.value)) t.buckets

let length (t : _ t) = t.size
let lookups (t : _ t) = t.lookups
let hits (t : _ t) = t.hits

let stats (t : _ t) : stats =
  { size = t.size; buckets = Array.length t.buckets; lookups = t.lookups;
    hits = t.hits }

let reset_counters (t : _ t) =
  t.lookups <- 0;
  t.hits <- 0
