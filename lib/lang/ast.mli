(** Abstract syntax of the mini-Fortran loop language.

    The language covers exactly the program class the paper analyzes:
    nested trapezoidal [for] loops over integer variables, assignments
    whose left- and right-hand sides reference multi-dimensional arrays,
    scalar temporaries, [read] statements introducing symbolic unknowns,
    and (for realism) two-way conditionals. Subscripts and bounds are
    arbitrary integer expressions; the optimizer passes ({!Dda_passes})
    reduce them to affine form where possible. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncating integer division *)

type relop =
  | Req  (** [==] *)
  | Rne  (** [!=] *)
  | Rlt
  | Rle
  | Rgt
  | Rge

type expr = {
  desc : expr_desc;
  eloc : Loc.t;
}

and expr_desc =
  | Int of int
  | Var of string
  | Bin of binop * expr * expr
  | Neg of expr
  | Aref of string * expr list
      (** Array element used as a value: [a[i][j]]. The reference's
          identity is its [eloc]. *)

type cond = {
  rel : relop;
  lhs : expr;
  rhs : expr;
}

type lvalue =
  | Lvar of string
  | Larr of string * expr list

type stmt = {
  sdesc : stmt_desc;
  sloc : Loc.t;
}

and stmt_desc =
  | Assign of lvalue * expr
  | For of for_loop
  | If of cond * stmt list * stmt list
  | Read of string  (** [read(n)]: [n] becomes a symbolic unknown *)

and for_loop = {
  var : string;
  lo : expr;
  hi : expr;
  step : expr option;  (** [None] means step 1 *)
  parallel : bool;
      (** the loop carries a [parallel] annotation — an assertion
          (checked by the lint layer, not the front end) that its
          iterations are independent *)
  body : stmt list;
}

type program = stmt list

(** {1 Constructors} *)

val int_ : ?loc:Loc.t -> int -> expr
val var : ?loc:Loc.t -> string -> expr
val bin : ?loc:Loc.t -> binop -> expr -> expr -> expr
val neg : ?loc:Loc.t -> expr -> expr
val aref : ?loc:Loc.t -> string -> expr list -> expr
val assign : ?loc:Loc.t -> lvalue -> expr -> stmt
val for_ :
  ?loc:Loc.t -> ?step:expr -> ?parallel:bool -> string -> expr -> expr ->
  stmt list -> stmt
val if_ : ?loc:Loc.t -> cond -> stmt list -> stmt list -> stmt
val read : ?loc:Loc.t -> string -> stmt

(** {1 Traversal and queries} *)

val iter_stmts : (stmt -> unit) -> program -> unit
(** Visits every statement, outermost first. *)

val iter_vars : (string -> unit) -> expr -> unit
(** [iter_vars f e] calls [f] on every occurrence of a scalar variable
    in [e] (array names excluded), repeats included, in pre-order.
    Allocates nothing of its own. *)

val mentions : string -> expr -> bool
(** [mentions v e]: the scalar [v] occurs in [e] (an array named [v]
    does not count). *)

val array_refs : program -> (string * expr list * [ `Read | `Write ] * Loc.t) list
(** Every array reference site in the program: name, subscripts,
    read/write role, and the site's location. *)

val equal_expr : expr -> expr -> bool
(** Structural equality ignoring locations. *)

val equal_stmt : stmt -> stmt -> bool
val equal_program : program -> program -> bool
