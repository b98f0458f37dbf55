(** Tokens of the Rustlite surface language.

    Rustlite is the Rust subset the retrofitted HyperEnclave memory
    module uses (paper Sec. 2.3): structs and [impl] blocks with
    [self] methods, references, integer arithmetic, [if]/[while]/
    [loop], named constants instead of value-carrying enums, and
    [extern] declarations for trusted-layer primitives. *)

type pos = { line : int; col : int }

val pp_pos : Format.formatter -> pos -> unit

type t =
  | Int of int64
  | Ident of string
  | Kw of string  (** fn, let, mut, if, else, while, loop, break, continue,
                      return, struct, enum, match, impl, const, extern, true,
                      false, as, self, u64, usize, bool *)
  | Punct of string
      (** one of: ( ) {{ }} , ; : :: -> . = == != < <= > >= + - * / % & && |
          || ^ << >> ! &mut *)
  | Eof

type spanned = { tok : t; pos : pos }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val is_keyword : string -> bool
(** Whether an identifier-shaped word is one of the {!Kw} keywords. *)
