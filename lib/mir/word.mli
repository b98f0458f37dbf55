(** Machine words.

    MIRlight models Rust integers as 64-bit machine words tagged with
    their declared width (see {!Mir.Ty.int_ty}).  All arithmetic wraps
    modulo [2^width]; comparisons are unsigned unless stated otherwise.
    The representation is an OCaml [int64] whose bits above the width
    are always zero (a normalization invariant maintained by every
    operation in this module). *)

type t = int64

(** Width of an integer type, in bits. *)
type width = W8 | W16 | W32 | W64

val bits : width -> int
(** [bits w] is 8, 16, 32 or 64. *)

val mask : width -> int64
(** [mask w] is the all-ones pattern for [w], e.g. [0xFF] for {!W8}. *)

val norm : width -> t -> t
(** [norm w x] truncates [x] to the low [bits w] bits. *)

val zero : t
val one : t

val of_int : width -> int -> t
val to_int : t -> int
(** [to_int x] is the value as an OCaml [int]; raises [Invalid_argument]
    if [x] does not fit in a non-negative OCaml int. *)

val add : width -> t -> t -> t
val sub : width -> t -> t -> t
val mul : width -> t -> t -> t

val div : width -> t -> t -> t option
(** Unsigned division; [None] on division by zero. *)

val rem : width -> t -> t -> t option
(** Unsigned remainder; [None] on division by zero. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : width -> t -> t

val shift_left : width -> t -> int -> t
val shift_right : width -> t -> int -> t
(** Logical (unsigned) right shift. *)

val equal : t -> t -> bool
val compare_u : t -> t -> int
(** Unsigned comparison. *)

val lt_u : t -> t -> bool
val le_u : t -> t -> bool

val bit : t -> int -> bool
(** [bit x i] is bit [i] of [x]. *)

val set_bit : t -> int -> bool -> t
(** [set_bit x i b] is [x] with bit [i] forced to [b]. *)

val extract : t -> lo:int -> len:int -> t
(** [extract x ~lo ~len] is the bitfield [x\[lo .. lo+len-1\]],
    right-aligned. *)

val insert : t -> lo:int -> len:int -> t -> t
(** [insert x ~lo ~len f] overwrites the bitfield [lo .. lo+len-1] of
    [x] with the low [len] bits of [f]. *)

val umax : t
(** The all-ones 64-bit word, the top of the unsigned order. *)

val min_u : t -> t -> t
val max_u : t -> t -> t
(** Unsigned minimum / maximum. *)

val add_overflows : t -> t -> bool
val mul_overflows : t -> t -> bool
(** Does the unsigned 64-bit operation wrap?  The abstract
    interpreter's transfer functions use these to decide whether an
    interval operation is exact. *)

val add_sat : t -> t -> t
val sub_sat : t -> t -> t
val mul_sat : t -> t -> t
(** Unsigned 64-bit saturating arithmetic: [add_sat]/[mul_sat] clamp at
    {!umax}, [sub_sat] at zero.  These bound the surviving values of a
    [Checked_binary] once its overflow assertion has pruned the
    wrapping executions. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0x1f]. *)

val to_hex : t -> string
