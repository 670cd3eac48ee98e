(** Seeded random affine-program fuzzer.

    Walks a small grammar (nested [for] loops, affine subscripts over
    the live loop variables, optional symbolic terms) and, in the
    {!Mixed} profile, interleaves {!Patterns} nests — producing
    arbitrary but always parseable, semantically valid programs. The
    streaming batch driver uses it as an unbounded corpus source; the
    oracle smoke test feeds {!Small} programs through brute-force
    iteration-space enumeration. *)

type profile =
  | Mixed
      (** grammar walks plus {!Patterns} nests, symbolic bounds and
          offsets allowed, loop depth up to 3 *)
  | Small
      (** oracle-friendly: constant bounds [<= 6], depth [<= 2], no
          symbolic terms — iteration spaces small enough to enumerate
          exhaustively *)

val all_profiles : profile list
val profile_name : profile -> string

val program : profile -> seed:int -> index:int -> string
(** The [index]-th program of the corpus identified by [seed]:
    deterministic (the same [(profile, seed, index)] always yields the
    same bytes, independent of generation order) — the property the
    resume machinery relies on to re-derive a corpus after a crash. *)
