(** Secret-flow noninterference lint (kind {!Lint.Secret_flow}).

    Taint abstract interpretation per call-graph SCC: enclave-secret
    state (as labelled by the [prim] models) must not reach a
    primary-OS-observable location, except through the marshalling
    buffer (which the models classify as sanctioned declassification).
    The policy closures are built from the physical layout by
    [Security.Labels]. *)

module A : module type of Absint.Make (Taint.Dom)

type config = {
  program : Mir.Syntax.program;
  prim :
    func:string -> args:A.value list -> (A.value * Taint.Labels.t) option;
      (** Model of the trusted primitives: result value and the labels
          reaching an observable sink at this call (empty = no sink,
          secret bit set = finding). *)
  boundary : string -> bool;
      (** Functions whose return value the primary OS observes. *)
}

type stats = {
  functions : int;
  findings : int;
  iterations : int;
  summaries : int;
}

val check :
  ?table:A.table -> config -> funcs:string list -> (string * Lint.finding) list * stats
(** Analyze the given functions (one SCC) in one context and return the
    findings tagged with the containing function's name.

    With [table] ({!Absint.Make.run}), callee summaries that earlier
    checks computed through it are reused, and the findings are those
    of a check without it, whatever ran before.  The table must only
    ever serve checks of this [config]'s program and [prim] model.  The
    stats count this check's own work: [summaries] and [iterations]
    add up both runs when the first was abandoned. *)
