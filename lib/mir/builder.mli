(** Imperative construction of MIRlight bodies.

    Used by the Rustlite lowering pass and by tests that hand-write
    small CFGs.  A builder accumulates declarations and blocks; blocks
    are reserved with {!fresh_block}, filled with {!push}/{!assign},
    and closed with {!terminate}.  {!finish} checks every reserved
    block was terminated. *)

type t

val create :
  name:string ->
  params:(string * Ty.t * Syntax.local_kind) list ->
  ret_ty:Ty.t ->
  t
(** Declares the return slot ["_0"] (as a temp) and the parameters. *)

val temp : t -> ?name:string -> Ty.t -> string
(** Declare a fresh temporary; generated names are ["_t0"], ["_t1"], … *)

val local : t -> ?name:string -> Ty.t -> string
(** Declare a fresh address-taken local. *)

val fresh_block : t -> Syntax.label
(** Reserve a new empty block and return its label (does not switch). *)

val current : t -> Syntax.label
val switch_to : t -> Syntax.label -> unit

val push : t -> Syntax.statement -> unit
val assign : t -> Syntax.place -> Syntax.rvalue -> unit
val assign_var : t -> string -> Syntax.rvalue -> unit

val terminate : t -> Syntax.terminator -> unit
(** Close the current block; fails if it is already terminated. *)

val finish : t -> Syntax.body
(** Raises [Invalid_argument] if any reserved block lacks a terminator. *)

(** {1 Operand and place helpers} *)

val pvar : string -> Syntax.place
val pfield : Syntax.place -> int -> Syntax.place
val pindex : Syntax.place -> string -> Syntax.place
val pderef : Syntax.place -> Syntax.place
val pdowncast : Syntax.place -> int -> Syntax.place

val copy : string -> Syntax.operand
val copy_place : Syntax.place -> Syntax.operand
val move : string -> Syntax.operand
val cint : Ty.int_ty -> int -> Syntax.operand
val cword : Ty.int_ty -> Word.t -> Syntax.operand
val cu64 : int -> Syntax.operand
val cbool : bool -> Syntax.operand
val cunit : Syntax.operand
