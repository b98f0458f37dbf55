(** Minimal JSON emission and parsing (no external dependency).

    The engine's observability outputs — the per-obligation JSONL trace
    and the machine-readable run summary — are plain JSON consumed by
    the bench harness and the CI gate.  The serve wire protocol
    (lib/serve) additionally reads JSON back with {!parse}.  (The proof
    cache still uses [Marshal] keyed by a content digest instead.) *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
val to_string : t -> string

val to_multiline_string : t -> string
(** Top-level object with one field per line (scalars) and one list
    element per line — greppable by the CI shell gate. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON value spanning the whole string (trailing
    content is an error).  A number must match RFC 8259's grammar: an
    optional [-], then [0] or a digit 1-9 and more digits, then an
    optional fraction ([.] and digits) and exponent ([e] or [E], an
    optional sign, digits).  One without a fraction or exponent parses
    as [Int] (falling back to [Float] on overflow).  A string takes no
    raw byte below 0x20 (they must be escaped).  A [\uXXXX] escape
    is exactly four hex digits; escapes — surrogate pairs included —
    decode to UTF-8 bytes.  Container
    nesting is bounded (512 levels): deeper input is an [Error], never
    a [Stack_overflow] — the serve daemon feeds this untrusted frames.
    Never raises: malformed input yields [Error] with the byte
    offset. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

val write_file : string -> string -> unit
val write_lines : string -> t list -> unit
(** JSONL: one value per line. *)
