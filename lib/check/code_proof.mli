(** Code-conformance checks for the 49 verified functions.

    For every function of the compiled memory module, builds
    {!Mirverif.Refine} cases — reachable abstract states crossed with
    argument batteries covering valid, boundary, and invalid inputs —
    and checks the MIR execution (lower layers replaced by their
    specifications) against the function's own specification.  This is
    the executable counterpart of the paper's per-function code proofs
    (Sec. 4.3). *)

type ctx
(** Shared check context: the input pool (reachable states, argument
    batteries) and each layer's override-composed environment, both
    built on first use, over the warmed compile/stack caches.  It keeps
    nothing per function: a function's battery is a stream that each
    run traverses, regenerating its cases from the input pool, so no
    case outlives the run that checks it.  Case generation is
    deterministic given (seed, layout), so the reports do not depend on
    the order the functions run in, or on how often a battery runs.
    Building a ctx generates no cases. *)

val ctx : ?seed:int -> Hyperenclave.Layout.t -> ctx

val check_function :
  ctx -> string -> (string * Hyperenclave.Absdata.t Mirverif.Refine.check) option
(** [(layer, check)] for one function; [None] if no spec owns it.  The
    check's [cases] stream yields the same cases, in the same order,
    each time it is traversed. *)

(** {1 Alias footprints}

    The interprocedural alias analysis ({!Analysis.Alias}) runs once
    per layout over the whole memory module, with the trusted
    primitives modelled as abstract-state effects.  The engine's alias
    phase reads its footprints. *)

val prim_summary : string -> Analysis.Alias.summary option
(** The footprint model of the trusted primitives: every primitive
    reads and writes the abstract state ({!Analysis.Alias.Labs}) and
    nothing else.  [None] for non-primitives. *)

val alias_summaries :
  Hyperenclave.Layout.t -> Analysis.Alias.info Analysis.Alias.StrMap.t
(** [Analysis.Alias.analyze ~prim:prim_summary] over the layout's
    compiled memory module, memoized per layout: computed on first use
    and shared by the engine's alias-phase obligations. *)

(** {1 Running the batteries} *)

val run_function : ctx -> string -> (string * Mirverif.Report.t) option
(** Run the conformance check of a single function — the obligation
    granularity of the engine. *)

val run_function_composed : ctx -> string -> (string * Mirverif.Report.t) option
(** The identical battery against the override-composed environment:
    same-layer callees execute stubs of their generated oracle specs
    instead of their bodies ({!Mir.Compile.override} linkage; a stub
    resolves pointer arguments through the caller's memory first).
    Sound only once those callees are proven — the engine gates each
    caller on its callees' obligation outcomes and falls back to
    {!run_function} while the gate is closed (e.g. a quarantined callee
    under engine chaos). *)

val composed_for : ctx -> string -> Hyperenclave.Absdata.t Mir.Compile.t
(** The layer's override-composed environment, the one
    {!run_function_composed} runs against: every spec-owned function of
    the layer linked as a stub of its spec.  Built on first use and
    kept for the ctx's lifetime. *)

val run_function_interp : ctx -> string -> (string * Mirverif.Report.t) option
(** The same battery, regenerated from the ctx's input pool, under
    the reference {!Mir.Interp} semantics instead of the compiled
    executor.  The engine's degradation ladder: when a compiled run
    crashes, the supervisor retries through this and flags the
    divergence. *)

val checks :
  ?seed:int -> Hyperenclave.Layout.t ->
  (string * Hyperenclave.Absdata.t Mirverif.Refine.check) list
(** [(layer, check)] pairs, one per function, bottom-up. *)

val run_layer : ?seed:int -> Hyperenclave.Layout.t -> string -> Mirverif.Report.t list
(** Run the checks of one layer. *)

val run_all : ?seed:int -> Hyperenclave.Layout.t -> (string * Mirverif.Report.t) list
(** Run everything, bottom-up; [(layer, per-function report)]. *)

val total_cases : (string * Mirverif.Report.t) list -> int * int * int * int
(** (total, passed, skipped, failed) over a result set. *)
