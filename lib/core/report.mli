(** Check reports.

    Every proof obligation of the paper becomes an executable check
    here; a report records how a batch of check instances fared.
    [skipped] counts generated cases outside the specification's
    precondition (the spec was undefined there, so nothing is claimed
    about the code). *)

type failure = { case : string; reason : string }

type t = {
  name : string;
  total : int;
  passed : int;
  skipped : int;
  failures_rev : failure list;
      (** newest-first; use {!failures} for the order they occurred *)
}

val empty : string -> t
val ok : t -> bool
val add_pass : t -> t
val add_skip : t -> t
val add_failure : t -> case:string -> reason:string -> t

val failures : t -> failure list
(** Failures in the order they were added. *)

val failure_count : t -> int

val merge : string -> t list -> t
(** Concatenates failures in argument order; linear in the total
    failure count. *)

val merge_by_name : t list -> t list
(** Group same-named reports and merge each group, preserving the
    first-occurrence order of the names — how sharded obligation
    results are folded back into one per-check line. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
