(** MIRlight types.

    By the time Rust code reaches MIR the compiler has fully
    type-checked the program and resolved every trait call, so the
    operational semantics do not depend on a type system (paper
    Sec. 3.1).  We keep a small type language anyway: integer widths
    drive arithmetic normalization, and declared types document the
    layer interfaces and let {!Mir.Validate} catch gross shape errors in
    hand-written or generated MIR. *)

(** Integer types of the Rust subset used by HyperEnclave. *)
type int_ty = U8 | U16 | U32 | U64 | Usize | I32 | I64

val width : int_ty -> Word.width
val signed : int_ty -> bool
val int_ty_equal : int_ty -> int_ty -> bool
val int_ty_to_string : int_ty -> string
val pp_int_ty : Format.formatter -> int_ty -> unit

type t =
  | Int of int_ty
  | Bool
  | Unit
  | Tuple of t list
  | Adt of string  (** a named struct or enum; layout is nominal *)
  | Ref of t  (** MIR references are pointers; mutability is erased *)
  | Array of t * int
  | Raw of t  (** raw pointer, [ *const T] / [ *mut T] *)
  | Opaque of string
      (** a type owned by a lower layer, only usable through RData
          handles (paper Sec. 3.4, pointer case 3) *)

val equal : t -> t -> bool
val add_to_buffer : Buffer.t -> t -> unit
(** Append the Rust spelling of the type ([&u64], [[u8; 4]], ...). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
