(** The affine loop-nest intermediate representation.

    This is the program form on which PolyUFC operates: a sequence of
    (possibly imperfectly nested) affine [for] loops whose bodies are
    statements with affine array accesses — the same information content as
    MLIR's [affine] dialect restricted to the paper's program class
    (Sec. II-A).  The polyhedral representation (domains, access relations,
    schedules) is {e extracted} from this AST by {!Scop}. *)

type aff = {
  var_coefs : (string * int) list;  (** coefficients on loop variables *)
  param_coefs : (string * int) list;  (** coefficients on program parameters *)
  const : int;
}
(** An affine expression over enclosing loop variables and parameters. *)

val aff_const : int -> aff
val aff_var : string -> aff
val aff_param : string -> aff
val aff_add : aff -> aff -> aff
val aff_sub : aff -> aff -> aff
val aff_scale : int -> aff -> aff
val aff_equal : aff -> aff -> bool

type access_kind = Read | Write

type access = {
  array : string;
  indices : aff list;
  kind : access_kind;
}

type binop = Add | Sub | Mul | Div | Max | Min

type expr =
  | Load of access  (** [access.kind] must be [Read] *)
  | Const of float
  | Bin of binop * expr * expr
  | Neg of expr
  | Sqrt of expr
  | Exp of expr

type stmt = {
  stmt_name : string;
  target : access;  (** the written element; [kind] must be [Write] *)
  rhs : expr;
}

type cond = {
  cond_aff : aff;
  cond_eq : bool;  (** [true]: [aff = 0]; [false]: [aff >= 0] *)
}
(** One affine guard; a branch carries a conjunction of these. *)

type item =
  | Loop of loop
  | Stmt of stmt
  | If of branch

and loop = {
  var : string;
  lo : aff list;  (** inclusive lower bound: [max] of the list (non-empty) *)
  hi : aff list;  (** exclusive upper bound: [min] of the list (non-empty) *)
  step : int;  (** positive *)
  parallel : bool;  (** marked parallel (OpenMP-style) *)
  body : item list;
}

and branch = {
  conds : cond list;  (** conjunction; must be non-empty *)
  then_ : item list;
  else_ : item list;  (** executed when some condition fails *)
}

type array_decl = {
  array_name : string;
  extents : aff list;  (** one per dimension; parameters allowed *)
  elem_size : int;  (** bytes per element *)
}

type t = {
  prog_name : string;
  params : string list;
  arrays : array_decl list;
  body : item list;
}

val loop :
  ?step:int -> ?parallel:bool -> string -> lo:aff -> hi:aff -> item list -> item
(** Loop with single-expression bounds (the common case). *)

val loop_minmax :
  ?step:int ->
  ?parallel:bool ->
  string ->
  lo:aff list ->
  hi:aff list ->
  item list ->
  item
(** Loop with [max]-of-list lower and [min]-of-list upper bounds, as
    produced by tiling. *)

val if_ : ?else_:item list -> cond list -> item list -> item
(** Affine branch (Sec. II-A: conditions are conjunctions over iterators
    and parameters, independent of the data). *)

val cond_ge : aff -> cond
(** [aff >= 0]. *)

val cond_eq : aff -> cond

val read : string -> aff list -> expr
val write : string -> aff list -> access
val assign : string -> target:access -> expr -> item

val flops_of_expr : expr -> int
(** Arithmetic-operation count under the paper's unitary model
    (footnote 13): every [Bin], [Neg], [Sqrt], [Exp] counts 1. *)

val accesses_of_stmt : stmt -> access list
(** All accesses of a statement: reads of the right-hand side in evaluation
    order, then the write of the target. *)

val find_array : t -> string -> array_decl
(** Raises [Not_found]. *)

val stmts : t -> stmt list
(** All statements in program order. *)

val loop_depth : t -> int
(** Maximum loop nesting depth. *)

val validate : t -> (unit, string) result
(** Structural checks: loop variables unique on each path, accessed arrays
    declared, access ranks match declarations, variables in affine
    expressions in scope, statement names unique. *)

val fingerprint : t -> string
(** Canonical rendering of every field of the program: names, parameters,
    array extents and element sizes, loop bounds, steps and parallel
    marks, guards, statement names, targets and right-hand sides
    (constants in hexadecimal, so exactly).  Programs that differ in any
    field render differently. *)

val map_items : (item -> item) -> t -> t
(** Bottom-up rewrite of every item. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print in a C-like surface syntax (re-parsable by Polylang). *)

val pp_aff : Format.formatter -> aff -> unit
val pp_access : Format.formatter -> access -> unit
val pp_expr : Format.formatter -> expr -> unit
val pp_item : Format.formatter -> item -> unit
