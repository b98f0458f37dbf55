(** Interval-bounds certification (kind {!Lint.Interval_bounds}).

    Pure interval abstract interpretation per call-graph SCC:
    array-index bounds findings, plus [Info] discharge certificates
    for the {!Arith_lint} sites whose operand intervals provably
    cannot overflow ({!Lint.reconcile} cancels the corresponding
    [Error] findings). *)

module Dom : Absint.DOMAIN with type v = Interval.t and type eff = unit

module A : module type of Absint.Make (Dom)

type stats = {
  functions : int;
  bound_checks : int;  (** indexing sites examined *)
  findings : int;  (** indices that may escape *)
  discharged : int;  (** unchecked-arith certificates *)
  iterations : int;
}

val overflow_free : Mir.Syntax.bin_op -> Interval.t -> Interval.t -> bool
(** Can [op] on operands within the given intervals never wrap? *)

val check :
  ?table:A.table -> Mir.Syntax.program -> funcs:string list ->
  (string * Lint.finding) list * stats
(** Analyze the given functions (one SCC) and return the findings
    tagged with the containing function's name.

    Only an SCC with a site is solved: some member has an
    {!Arith_lint} site, or an index projection ([Pindex],
    [Pconst_index]) in a place the check reads (an assignment's
    destination or rvalue, a [Set_discriminant], a call's destination
    or arguments, a [Drop]).  Its members are then solved in order in
    one fresh context.  Any other SCC cannot have a finding; it is not
    solved and reports 0 [iterations].

    With [table] ({!Absint.Make.run}), the solve reuses callee
    summaries that earlier checks of the same [program] computed
    through it, and the result is that of a check without it, whatever
    ran before; [iterations] counts this check's own block transfers
    (both runs when the first was abandoned). *)
