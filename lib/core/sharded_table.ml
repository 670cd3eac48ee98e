type 'a stripe = {
  lock : Mutex.t;
  table : 'a Memo_table.t;
}

type 'a t = {
  mask : int;  (* stripe count - 1; count is a power of two *)
  shift : int;  (* take the stripe index from the mixed hash's top bits *)
  stripes : 'a stripe array;
}

let m_contended = Dda_obs.Metrics.counter "memo.stripe.contended"

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(stripes = 32) () : _ t =
  let n = next_pow2 (max 1 stripes) in
  let log2 = ref 0 in
  while 1 lsl !log2 < n do incr log2 done;
  { mask = n - 1;
    shift = Sys.int_size - 1 - !log2;
    stripes =
      Array.init n (fun _ ->
          { lock = Mutex.create (); table = Memo_table.create () }) }

let stripes (t : _ t) = Array.length t.stripes

(* Fibonacci multiplicative mix (Knuth), its top bits: the per-stripe
   Memo_table buckets are picked by another multiplier's product
   folded onto its low bits, so the stripe index comes from
   independent bits and each stripe still fills all of its buckets. *)
let stripe_for (t : _ t) h =
  t.stripes.(((h * 0x6b43a9b5) lsr t.shift) land t.mask)

(* Acquire, counting the acquisitions that had to block: a failed
   try_lock means another domain holds the stripe right now — the
   contention signal the bench uses to prove stripes are not a
   bottleneck. *)
let lock_stripe (s : _ stripe) =
  if not (Mutex.try_lock s.lock) then begin
    Dda_obs.Metrics.incr m_contended;
    Mutex.lock s.lock
  end

(* One acquisition: the failpoint a hit passes runs with no lock held,
   as in [find_or_add] (a [delay] action would otherwise stall the
   stripe). *)
let probe (t : _ t) key =
  let s = stripe_for t (Memo_table.hash_key key) in
  lock_stripe s;
  let r = Memo_table.find s.table key in
  Mutex.unlock s.lock;
  if Option.is_some r then Failpoint.hit "memo.find_or_add";
  r

let add (t : _ t) key value =
  let s = stripe_for t (Memo_table.hash_key key) in
  lock_stripe s;
  Memo_table.add s.table key value;
  Mutex.unlock s.lock

let find_or_add ?on_miss (t : _ t) key compute =
  Failpoint.hit "memo.find_or_add";
  let s = stripe_for t (Memo_table.hash_key key) in
  lock_stripe s;
  match Memo_table.find s.table key with
  | Some v ->
    Mutex.unlock s.lock;
    (v, true)
  | None ->
    (* Compute with no lock held: a full-table compute recurses into
       the gcd table (possibly the same stripe of another instance —
       or, with one shared instance per kind, a different table
       entirely, but the discipline is uniform), and [compute] may
       raise (budgets, failpoints), in which case nothing is stored.
       A racing domain may add the key first; [Memo_table.add]
       replaces, and deterministic computes make the values
       equivalent, so the race only costs the duplicate compute.
       The key is copied before [compute] runs: the caller may have
       handed us a scratch buffer that nested lookups reuse. *)
    Mutex.unlock s.lock;
    let key = Array.copy key in
    let v = compute () in
    lock_stripe s;
    Memo_table.add s.table key v;
    Mutex.unlock s.lock;
    (match on_miss with Some f -> f key v | None -> ());
    (v, false)

let length (t : _ t) =
  Array.fold_left
    (fun acc s ->
       lock_stripe s;
       let n = Memo_table.length s.table in
       Mutex.unlock s.lock;
       acc + n)
    0 t.stripes

let iter f (t : _ t) =
  Array.iter
    (fun s ->
       lock_stripe s;
       Fun.protect ~finally:(fun () -> Mutex.unlock s.lock)
         (fun () -> Memo_table.iter f s.table))
    t.stripes
