(** Engine phase wrapper for the borrow checker (kinds {!Lint.borrow}).

    One obligation per function, fingerprinted on the function's own
    MIRlight digest: the analysis is strictly intraprocedural, so a
    cache entry survives every edit that leaves the body alone. *)

type stats = { functions : int; loans : int; findings : int }

val run : ?lints:Lint.kind list -> Mir.Syntax.body -> Lint.finding list
(** Borrow findings restricted to the selected kinds (non-borrow kinds
    in the selection are ignored). *)

val check :
  ?lints:Lint.kind list ->
  name:string ->
  Mir.Syntax.body ->
  Mirverif.Report.t * Lint.finding list * stats
(** [run] plus a report with one pass per clean selected kind and one
    failure per finding, like {!Pass.report}. *)
