type label = int

type place_elem =
  | Deref
  | Pfield of int
  | Pindex of string
  | Pconst_index of int
  | Downcast of int

type place = { var : string; elems : place_elem list }

type constant =
  | Cint of Word.t * Ty.int_ty
  | Cbool of bool
  | Cunit
  | Cfn of string

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
  | Agg_variant of string * int
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
  | Return
  | Unreachable
  | Drop of place * label
  | Call of { dest : place; func : string; args : operand list; target : label option }
  | Assert of { cond : operand; expected : bool; msg : string; target : label }

type block = { stmts : statement list; term : terminator }

type local_kind = Klocal | Ktemp

type local_decl = { lname : string; lty : Ty.t; lkind : local_kind }

type body = {
  fname : string;
  params : string list;
  locals : local_decl list;
  blocks : block array;
}

module StrMap = Map.Make (String)

type program = body StrMap.t

let return_var = "_0"

let program_of_bodies bodies =
  List.fold_left (fun acc b -> StrMap.add b.fname b acc) StrMap.empty bodies

let find_body prog name = StrMap.find_opt name prog
let body_names prog = List.map fst (StrMap.bindings prog)
let fold_bodies f prog init = StrMap.fold f prog init
let union a b = StrMap.union (fun _ _ rhs -> Some rhs) a b

let local_kind_of body name =
  List.find_opt (fun d -> String.equal d.lname name) body.locals
  |> Option.map (fun d -> d.lkind)

let place_of_var var = { var; elems = [] }

let mir_line_count body =
  let per_block = Array.fold_left (fun n blk -> n + List.length blk.stmts + 2) 0 body.blocks in
  (* signature line + declaration lines + per-block (header + stmts + term) *)
  1 + List.length body.locals + per_block

let program_line_count prog =
  fold_bodies (fun _ body n -> n + mir_line_count body) prog 0
