(* h(x) = size(x) + sum_i 2^i * x_i, computed with wrapping native
   arithmetic (deterministic; only the bucket index needs to be
   stable). *)
let hash_key key =
  let h = ref (Array.length key) in
  let p = ref 1 in
  for i = 0 to Array.length key - 1 do
    h := !h + (!p * key.(i));
    p := !p * 2
  done;
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
}

let load_factor = 2

let create ?(initial_buckets = 64) () : _ t =
  { buckets = Array.make initial_buckets []; size = 0 }

(* The bucket of a hash. The paper's hash taken [mod] a power-of-two
   bucket count would see only the key length and the first
   log2(buckets) words, so it goes through a multiplicative mix first:
   the product's high bits, folded onto its low ones, pick the bucket.
   ({!Sharded_table} picks stripes from the top bits of another
   product.) *)
let bucket (t : _ t) h =
  let x = h * 0x1e3779b97f4a7c15 in
  ((x lxor (x lsr 31)) land max_int) mod Array.length t.buckets

let equal_key (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
      && (let n = Array.length a in
          let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
          go 0))

let rehash (t : _ t) =
  let old = t.buckets in
  t.buckets <- Array.make (Array.length old * 2) [];
  Array.iter
    (List.iter (fun e ->
         let b = bucket t e.hash in
         t.buckets.(b) <- e :: t.buckets.(b)))
    old

(* The chain from the key's entry on, [[]] when absent: a walk that
   allocates nothing. *)
let rec chain_from key h = function
  | [] -> []
  | e :: rest as chain ->
    if e.hash = h && equal_key e.key key then chain else chain_from key h rest

let find_entry (t : _ t) key h = chain_from key h t.buckets.(bucket t h)

let find (t : _ t) key =
  match find_entry t key (hash_key key) with e :: _ -> Some e.value | [] -> None

let probe (t : _ t) key =
  match find t key with
  | Some _ as hit ->
    Failpoint.hit "memo.find_or_add";
    hit
  | None -> None

(* [h] is the key's precomputed hash; the caller guarantees the key is
   not already present. *)
let add_new (t : _ t) key h value =
  let b = bucket t h in
  t.buckets.(b) <- { key; hash = h; value } :: t.buckets.(b);
  t.size <- t.size + 1;
  if t.size > load_factor * Array.length t.buckets then rehash t

let add (t : _ t) key value =
  let h = hash_key key in
  let b = bucket t h in
  if List.exists (fun e -> e.hash = h && equal_key e.key key) t.buckets.(b) then begin
    t.buckets.(b) <-
      List.filter (fun e -> not (e.hash = h && equal_key e.key key)) t.buckets.(b);
    t.size <- t.size - 1
  end;
  add_new t key h value

let find_or_add (t : _ t) key compute =
  Failpoint.hit "memo.find_or_add";
  let h = hash_key key in
  match find_entry t key h with
  | e :: _ -> (e.value, true)
  | [] ->
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
let buckets (t : _ t) = Array.length t.buckets
