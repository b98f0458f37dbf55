(** The 15-layer stack (paper Sec. 4).

    Bottom-first: Trusted, PteOps, FrameAlloc, PhysEntry, TableOps,
    WalkRead, WalkAlloc, PtMap, PtQuery, AddrSpace, Epcm, MarshBuf,
    EnclaveMem, Hypercalls, IsolationModel.  The trusted layer exports
    the axiomatized primitives and has no code; IsolationModel is the
    pure abstract model the security proofs live in (no code either);
    the 49 functions of the compiled memory module are distributed over
    the 13 layers in between. *)

val compiled : Layout.t -> Rustlite.Pipeline.output
(** The memory module compiled for this layout (memoized). *)

val body_digest : Layout.t -> string -> string
(** Hex MD5 of the function's MIRlight text ({!Mir.Pp.body_to_string}),
    or ["missing"] when the compiled module has no such body.  Memoized
    per layout, like {!compiled}; filled by {!warm}. *)

val stack : Layout.t -> Absdata.t Mirverif.Layer.stack
(** The full stack; raises on compile failure (the source is ours). *)

val env_for : Layout.t -> layer:string -> Absdata.t Mir.Interp.env
(** Interpreter environment for checking one layer's code. *)

val compile_memo : Absdata.t Mir.Compile.cache
(** Shared per-body closure-compilation memo: bodies are keyed by
    MIRlight digest + call-site linkage, so chaos-wrapped copies of an
    environment (same primitive names) reuse every compiled body. *)

val compiled_for : Layout.t -> layer:string -> Absdata.t Mir.Compile.t
(** Closure-compiled environment for one layer, compiled on first use
    (memoized per [(layout, layer)]).  {!warm} does not compile it: a
    run whose obligations all hit the proof cache never asks. *)

val layer_of_function : Layout.t -> string -> string option
val functions_of_layer : Layout.t -> string -> string list
(** Both read {!Mem_spec}'s per-layout index. *)

val callees : Layout.t -> string -> string list
(** Spec-owned functions [fn] calls directly (first-call-site order,
    deduplicated, self-calls excluded) — the call-graph edges the
    engine turns into override dependencies and fingerprint
    ingredients.  Indexed once per layout. *)

val same_layer_callees : Layout.t -> string -> string list
(** The subset of {!callees} living in [fn]'s own layer: exactly the
    calls that the monolithic checker executes as bodies and the
    override-composed checker executes as spec stubs.  (Lower-layer
    callees are primitives in both modes.) *)

val verified_function_count : Layout.t -> int
val layer_count : int

val stratification_ok : Layout.t -> Mirverif.Layer.stratification_issue list
(** Syntactic no-upcall check over the stack (empty = ok). *)

val warm : Layout.t -> unit
(** A prewarm: fill the layout-keyed memos ({!compiled},
    {!body_digest}, {!stack}, the boot state) now rather than on first
    use.  Plan build calls it, so the front end's cost lands in plan
    build and not in the first obligation that reads a memo, and the
    daemon's worker calls it at start-up, so its first request does not
    pay for it.  Closure compilation ({!compiled_for}) stays on first
    use. *)
