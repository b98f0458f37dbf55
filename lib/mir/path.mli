(** Path-based addresses.

    MIRlight abandons the flat-array-of-bytes view of memory: an
    address is a {e path} — a base object plus a list of projections
    (paper Sec. 3.2, "GlobalPath IDENT_foo [OFFSET_bar 1]").  Proofs
    (here: checks) therefore never reason about object layout, and an
    assignment only changes the value reachable through the assigned
    path. *)

(** The root object a path starts from. *)
type base =
  | Global of string  (** a global/static variable *)
  | Local of int * string
      (** [Local (frame, var)]: variable [var] of the call-frame
          instance [frame].  Frames are never deallocated, mirroring the
          paper's no-free semantics, so frame ids are globally unique. *)

(** One projection step. *)
type proj =
  | Field of int  (** field of a struct / tuple / enum payload *)
  | Index of int  (** element of an array aggregate *)

type t = { base : base; projs : proj list }

val global : string -> t
val local : frame:int -> string -> t
val extend : t -> proj -> t
(** [extend p pr] appends projection [pr] (at the end). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Base : sig
  type t = base

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end
