(** Alias-footprint lint (kind {!Lint.Alias_footprint}), one engine
    obligation per call-graph SCC.

    Error findings fire when a call passes two definitely-may-alias
    arguments (common witness location, never unknown) to a callee
    whose {!Alias} footprint writes through both parameters.  The same
    pass emits [Info] discharge certificates
    ([discharged_by "alias-footprint"]) for per-body
    [Encapsulation]/[Move_init] findings: handle arguments provably
    opaque to the callee, and findings at abstractly-unreachable
    program points.  Policy closures are injected like
    {!Secret_flow.config} so this library stays independent of the
    hyperenclave layer stack. *)

type config = {
  program : Mir.Syntax.program;
  prim : string -> Alias.summary option;
      (** Footprint models of the trusted primitives; [None] makes the
          caller's footprint inexact. *)
  fn_layer : string -> string option;
  accessor : owner:string -> callee:string -> bool;
}

type stats = {
  functions : int;
  footprints : int;  (** exact footprints among the SCC's functions *)
  findings : int;  (** Error findings *)
  discharged : int;  (** certificates emitted *)
}

val dead_blocks : Interval_lint.A.ctx -> string -> bool array
(** Per block of the named body: CFG-reachable, yet never visited by
    the interval interpretation in [ctx] (an infeasible
    constant-switch target, say).  The blocks behind the dead-block
    certificates; empty when the body is unknown.  {!check} builds its
    context with every primitive unmodelled. *)

val check :
  config ->
  infos:Alias.info Alias.StrMap.t ->
  funcs:string list ->
  (string * Lint.finding) list * stats
(** Analyze the given functions (one SCC); findings are tagged with
    the containing function's name.

    [infos] are the whole-program summaries and must equal
    [Alias.analyze ~prim:cfg.prim cfg.program].  The caller computes
    them once and shares them across every SCC; the engine keeps one
    map per layout.  The interval interpretation
    behind the dead-block certificates runs only when a member has an
    [Error] [Encapsulation]/[Move_init] finding: the first one solves
    every member, in [funcs] order, in one fresh context. *)
