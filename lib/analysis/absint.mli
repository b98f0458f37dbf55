(** Generic abstract interpreter over MIRlight.

    [Make (D)] builds a forward, edge-sensitive, interprocedural
    interpreter for an abstract domain [D].  Branch refinement
    constrains the interval component that every domain scalar exposes
    ({!DOMAIN.interval} / {!DOMAIN.with_interval}); loops converge via
    widening-to-thresholds at retreating-edge targets followed by a
    bounded narrowing sweep; calls are summarized per abstract calling
    context (bounded, memoized, and shared between analyses through a
    summary table, {!Make.run}), with the trusted primitives modelled
    by the client through [ctx.prim]. *)

module type DOMAIN = sig
  type v

  val name : string
  val top : v
  val equal : v -> v -> bool
  val join : v -> v -> v
  val widen : thresholds:Mir.Word.t list -> v -> v -> v
  val narrow : v -> v -> v
  val is_bot : v -> bool

  val of_const : Mir.Syntax.constant -> v
  val binop : Mir.Syntax.bin_op -> v -> v -> v
  val checked : Mir.Syntax.bin_op -> v -> v -> v * v
  val unop : Mir.Syntax.un_op -> v -> v
  val cast : Mir.Ty.int_ty -> v -> v
  val deref : v -> v

  val interval : v -> Interval.t

  val with_interval : v -> Interval.t -> v
  (** Replace the numeric component (labels and any other components
      are preserved): the hook the generic branch refinement
      constrains values through. *)

  (** {2 Interprocedural labelling} *)

  val label_arg : int -> v -> v
  (** Tag the [i]-th entry parameter of a summary context. *)

  val subst : actuals:v list -> v -> v
  (** Rewrite a summary result from the callee frame into the caller
      frame (argument tags become the actuals' labels). *)

  type eff
  (** Summary effect: what a call may do besides returning (for the
      taint domain, the labels that may reach an observable sink). *)

  val eff_bot : eff
  val eff_join : eff -> eff -> eff
  val eff_top : arity:int -> eff

  val subst_eff : actuals:v list -> eff -> eff * bool
  (** Callee effect seen from the call site: the effect in the caller
      frame, and whether one of the actuals carries a secret into the
      callee's sink (the caller-side finding). *)

  val key : v -> string
  (** Canonical rendering, the memo key of summary contexts. *)
end

(** Structured abstract values: tuple/struct fields kept apart, arrays
    summarized by one element. *)
type 'v aval =
  | Leaf of 'v
  | Tup of 'v aval array
  | Arr of { elt : 'v aval; len : int }

module Make (D : DOMAIN) : sig
  type value = D.v aval

  val map_leaves : (D.v -> D.v) -> value -> value
  val collapse : value -> D.v
  (** Join of all leaves: the scalar summary of a structured value. *)

  val join_v : value -> value -> value
  val equal_v : value -> value -> bool
  val key_v : value -> string
  val top_v : value

  type env
  (** Abstract environment at a program point. *)

  val read_var : env -> string -> value
  val read_place : env -> Mir.Syntax.place -> value
  val eval_operand : env -> Mir.Syntax.operand -> value

  val scalar : env -> Mir.Syntax.operand -> D.v
  (** [collapse] of {!eval_operand}. *)

  val ty_of_place : Mir.Syntax.body -> Mir.Syntax.place -> Mir.Ty.t option

  val thresholds_of : Mir.Syntax.body -> Mir.Word.t list
  (** The widening threshold set the solver uses for [body]. *)

  type stats = {
    mutable iterations : int;  (** block transfers executed *)
    mutable widenings : int;
    mutable max_visits : int;  (** worst per-block visit count *)
    mutable summaries : int;  (** callee contexts analyzed *)
  }

  type ctx

  val create_ctx :
    ?max_contexts:int ->
    prim:(func:string -> args:value list -> (value * D.eff) option) ->
    Mir.Syntax.program ->
    ctx
  (** [prim] models the trusted primitives (and any other extern): its
      result is the call's return value and summary effect; [None]
      falls through to program bodies / unknown-extern top. *)

  val stats : ctx -> stats

  type soln
  (** Stabilized per-block entry environments of one body. *)

  type summary = { ret : value; eff : D.eff }

  val solve : ctx -> Mir.Syntax.body -> entry:value list -> soln
  val return_value : Mir.Syntax.body -> soln -> value
  val effects : ctx -> Mir.Syntax.body -> soln -> D.eff

  val summarize : ctx -> string -> value list -> summary option
  (** Summary of a program function for the given abstract arguments
      (labelled via {!DOMAIN.label_arg}); [None] when it has no body. *)

  val apply_call : ctx -> string -> value list -> (value * D.eff * bool) option
  (** Call result, effect and caller-side secret-sink hit, all in the
      caller's frame; [None] when [func] has no body here. *)

  type visitor = {
    on_stmt : block:int -> idx:int -> env -> Mir.Syntax.statement -> unit;
    on_term : block:int -> env -> Mir.Syntax.terminator -> unit;
  }

  val visit : Mir.Syntax.body -> soln -> visitor -> unit
  (** Replay reachable blocks with the stabilized environment in force
      at each statement and terminator. *)

  val analyze : ctx -> string -> (Mir.Syntax.body * soln) option
  (** Solve a function under unconstrained (top) parameters. *)

  (** {2 Summary tables}

      A context memoizes callee summaries for its own analysis only,
      and allows each function 8 calling contexts: past them a call
      falls back to the function's top context, and a call that
      re-enters a context still being summarized is cut to top.  Both
      make a summary depend on what the context met before.  A single
      context shared by several analyses would therefore make each
      result depend on the order they ran in.

      A table shares summaries between analyses ({!run}s) of one
      program under one [prim] model; the caller keeps it with that
      pair.  It holds only summaries whose computation made no
      fallback and no cut, transitively.  Each is then the only exact
      summary of its (function, context) pair, whichever run computed
      it, and it carries every pair its computation touched.  The
      rule:

      - A run first goes through the table, with its own context and
        budget as before.  The recursion check comes before the table
        lookup.
      - Reusing an entry admits all the pairs it carries into the
        run's per-function context sets, as computing it there would
        have added them.
      - Each summary the run computes is added to the table once it is
        complete.
      - If an admission takes a function past the budget, or the run
        itself falls back or cuts, the run is abandoned.  It runs
        again on a fresh context without the table: the plain path.

      Why a completed first run is exact: every summary it read is
      its pair's exact one, and the pairs it counted are exactly those
      a fresh run touches, never more than the budget allows.  A fresh
      run therefore falls back and cuts nowhere either, and reads the
      same summaries.  Its result is the same. *)

  type table

  val create_table : unit -> table
  (** An empty table. *)

  val table_summaries : table -> int
  (** Summaries the table holds.  Each was computed once, by the first
      run that needed it; a rerun, made without the table, adds none. *)

  val table_reruns : table -> int
  (** Runs that were abandoned and analyzed again without the table. *)

  val run :
    ?table:table ->
    prim:(func:string -> args:value list -> (value * D.eff) option) ->
    Mir.Syntax.program ->
    (ctx -> 'a) ->
    'a * stats
  (** [run ?table ~prim program f] is [f ctx] on a fresh context
      ({!create_ctx} with the default budget) and the work it did.
      With a [table], [f] first runs through it, and is run again on a
      fresh context when that first run is abandoned (see above); [f]
      must therefore return its results rather than record them
      elsewhere.  The stats then add up both runs.  The result always
      equals that of a run without the table. *)
end
