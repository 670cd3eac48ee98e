(** Reference-pattern templates for the synthetic PERFECT Club.

    Each category is engineered so that the pairs it produces are
    (predominantly) decided by the corresponding stage of the cascade —
    mirroring the columns of the paper's Table 1. Parameters are drawn
    from deliberately small sets: real programs repeat the same
    subscript shapes over and over, which is exactly what makes the
    paper's memoization effective. *)

type category =
  | Constant  (** array-constant subscripts, no dependence testing *)
  | Gcd_indep  (** stride/parity mismatch caught by the GCD step *)
  | Svpc  (** decided by Single Variable Per Constraint *)
  | Acyclic  (** coupled subscripts with an acyclic constraint graph *)
  | Loop_residue  (** difference-constraint cycles *)
  | Fourier  (** needs the Fourier-Motzkin backup *)
  | Symbolic_mix  (** symbolic terms in subscripts (paper section 8) *)

val all_categories : category list
val category_name : category -> string

val generate : Prng.t -> category -> string
(** One self-contained loop nest (source text) of the given flavor. *)

val write : Buffer.t -> Prng.t -> category -> unit
(** [generate]'s nest, appended to the buffer: the same draws, the
    same text. *)
