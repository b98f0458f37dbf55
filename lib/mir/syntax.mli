(** MIRlight program syntax.

    Programs are control-flow graphs: each labelled basic block is a
    list of statements followed by one terminator (paper Sec. 3.1).
    Variables are split by the translator into {e locals} (address
    taken, allocated in object memory) and {e temps} (kept in a
    per-call temporary environment, like LLVM's mem2reg) — see
    {!local_kind}. *)

type label = int
(** Basic-block label; the entry block is label [0] ("bb0"). *)

(** One step of a place expression.  [Downcast] selects an enum variant
    before projecting its payload fields; in the object view it only
    asserts the discriminant. *)
type place_elem =
  | Deref
  | Pfield of int
  | Pindex of string  (** index held in a variable *)
  | Pconst_index of int
  | Downcast of int

type place = { var : string; elems : place_elem list }

type constant =
  | Cint of Word.t * Ty.int_ty
  | Cbool of bool
  | Cunit
  | Cfn of string  (** function item (zero-sized); used by [Call] via operand *)

type operand = Copy of place | Move of place | Const of constant

type bin_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Bit_and
  | Bit_or
  | Bit_xor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type un_op = Not | Neg

type aggregate_kind =
  | Agg_tuple
  | Agg_struct of string
  | Agg_variant of string * int  (** enum name, variant index *)
  | Agg_array

type rvalue =
  | Use of operand
  | Repeat of operand * int
  | Ref of place
  | Address_of of place
  | Len of place
  | Cast of operand * Ty.int_ty
  | Binary of bin_op * operand * operand
  | Checked_binary of bin_op * operand * operand
      (** returns [(result, overflowed)] as a 2-tuple *)
  | Unary of un_op * operand
  | Discriminant of place
  | Aggregate of aggregate_kind * operand list

type statement =
  | Assign of place * rvalue
  | Set_discriminant of place * int
  | Storage_live of string
  | Storage_dead of string
  | Nop

type terminator =
  | Goto of label
  | Switch_int of operand * (Word.t * label) list * label
      (** value cases, otherwise target *)
  | Return
  | Unreachable
  | Drop of place * label
      (** deallocation is a no-op in MIRlight (paper Sec. 3.2) *)
  | Call of { dest : place; func : string; args : operand list; target : label option }
  | Assert of { cond : operand; expected : bool; msg : string; target : label }

type block = { stmts : statement list; term : terminator }

(** Address-taken variables live in object memory; all others live in
    the temporary environment and induce no memory side effects
    (paper Sec. 3.2, "Lifting Local Variables"). *)
type local_kind = Klocal | Ktemp

type local_decl = { lname : string; lty : Ty.t; lkind : local_kind }

type body = {
  fname : string;
  params : string list;  (** in order; each must appear in [locals] *)
  locals : local_decl list;  (** includes params and the return slot ["_0"] *)
  blocks : block array;  (** indexed by label; entry is [0] *)
}

type program
(** A set of function bodies, keyed by name. *)

val return_var : string
(** The name of the return slot, ["_0"]. *)

val program_of_bodies : body list -> program
val find_body : program -> string -> body option
val body_names : program -> string list
val fold_bodies : (string -> body -> 'a -> 'a) -> program -> 'a -> 'a
val union : program -> program -> program
(** Right-biased union of two programs. *)

val local_kind_of : body -> string -> local_kind option
val place_of_var : string -> place

val mir_line_count : body -> int
(** Printable-line count of the body — one line per statement,
    terminator, block header and declaration — used for the Table 1
    "lines of MIR" statistic. *)

val program_line_count : program -> int
