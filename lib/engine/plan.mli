(** Builds the verification plan: the full pass (phases 3-8 of the
    CLI) reified as an obligation DAG.

    Obligation granularity mirrors the paper's proof structure: one
    node per code-proof function, per refinement-simulation shard, per
    invariant/noninterference state batch, per attack scenario.  Edges
    encode the call graph (a function's code proof depends on those of
    the spec-owned functions it calls) and phase dependencies
    (refinement waits on the page-table layer's proofs; security
    phases wait on the invariant batches; trace-NI on that observer's
    three NI lemmas).

    Each obligation's RNG stream is split deterministically from the
    run seed and the obligation id, and its fingerprint digests every
    input the outcome depends on, so results are byte-identical in any
    run order and cache entries invalidate exactly when an input
    changes. *)

type mc_request = {
  mc_depth : int;
  mc_por : bool;
  mc_flush : bool;
  mc_layout : Hyperenclave.Layout.t;
}
(** A bounded model-checking run: exploration depth, partial-order
    reduction on/off, and whether unmaps flush the TLB ([mc_flush =
    false] is the planted [--buggy-tlb] monitor). *)

type absint_tables = {
  interval : Analysis.Interval_lint.A.table;
  secret_flow : Analysis.Secret_flow.A.table;
}
(** Phase 3b's callee-summary tables, one per abstract domain
    ({!Analysis.Absint.Make.run}). *)

type t = {
  dag : Dag.t;
  layout : Hyperenclave.Layout.t;
  seed : int;
  quick : bool;
  security : bool;
  lints : Analysis.Lint.kind list;
  model_check : mc_request option;
  override_counts : (string * int) list;
      (** per spec-owned function, bottom-up: how many same-layer
          call-graph edges override composition replaces with spec
          stubs (zeros included, so rollup keys are stable) *)
  corpus : Check.Gen.Corpus.t;
      (** the states and secret pairs of phases 6-8, created empty and
          filled only by the invariant, noninterference and trace-NI
          obligations that execute, each trace generated once per plan
          ({!Check.Gen.Corpus}); it goes with the plan *)
  absint_tables : absint_tables;
      (** created empty, captured by the absint obligations and filled
          only by those that execute, each callee summary computed once
          per plan where that leaves every outcome that of a fresh
          context; they go with the plan *)
}

val phases : string list
(** Engine phase names, in pass order: analysis, absint, borrow, alias,
    code-proofs, refinement, invariants, noninterference, trace-ni,
    attacks, model-check. *)

val build :
  ?quick:bool ->
  ?security:bool ->
  ?lints:Analysis.Lint.kind list ->
  ?model_check:mc_request ->
  seed:int ->
  Hyperenclave.Layout.t ->
  t
(** [build ~seed layout] constructs the DAG after the [Layers.warm]
    prewarm of the layout's memo tables.  It computes only
    what a cache lookup needs — ids, edges and fingerprints over
    [Layers.body_digest], [Layers.callees] and the spec index, each
    built once per layout — and nothing a lookup does not read: each
    code-proof obligation compiles its layer's closures
    ([Layers.compiled_for]) and builds the input pool, its battery and
    its composed environment when it first runs, so a fully warm run
    builds none of them.  [~security:false] (x86_64 geometry) drops
    phases 5-8; [~quick] shrinks trial/state counts like the CLI's
    [--quick]; [~lints] selects the static-analysis lints (default:
    the whole catalogue); [~model_check] adds phase 11 over its own
    [mc_layout]. *)

val build_memo :
  ?quick:bool ->
  ?security:bool ->
  ?lints:Analysis.Lint.kind list ->
  ?model_check:mc_request ->
  seed:int ->
  Hyperenclave.Layout.t ->
  t * bool * float
(** {!build} timed on {!Clock.now}: [(plan, false, build_s)].  No plan
    is kept between calls, so the hit flag is always [false].  A
    bench-only shim: [bench/e2e] still calls it, and it is deleted once
    that benchmark stops (ROADMAP item 3). *)

val analysis_obligations :
  ?lints:Analysis.Lint.kind list ->
  Hyperenclave.Layout.t ->
  Obligation.t list
(** One dependency-free obligation per function per layer, running the
    selected per-body lints over that function's MIRlight body.
    Fingerprinted on the (body-)lint selection and the body alone (no
    layout geometry), so cache entries survive anything that doesn't
    change the body. *)

val absint_obligations :
  ?lints:Analysis.Lint.kind list ->
  ?tables:absint_tables ->
  Hyperenclave.Layout.t ->
  Obligation.t list
(** One obligation per call-graph SCC per selected abstract domain
    (interval bounds, secret-flow taint), depending on the same-domain
    obligations of its callee SCCs.  Fingerprinted on the domain, the
    SCC membership and the MIRlight digests of the SCC's transitive
    callee closure (plus the layout for secret-flow, whose policy is
    derived from it): a warm cache re-executes nothing, and editing a
    function invalidates exactly its SCC and the SCCs above it.

    Each domain's obligations check through one summary table
    ([tables], fresh ones by default), so an SCC reuses the callee
    summaries its predecessors computed; each outcome is that of
    {!Analysis.Secret_flow.check} or {!Analysis.Interval_lint.check}
    without a table, in any run order, so the table is in no
    fingerprint. *)

val borrow_obligations :
  ?lints:Analysis.Lint.kind list ->
  Hyperenclave.Layout.t ->
  Obligation.t list
(** One dependency-free obligation per function per layer, running the
    NLL-style borrow checker ({!Analysis.Borrow_lint}) when any
    {!Analysis.Lint.borrow} kind is selected (empty otherwise).
    Strictly intraprocedural: fingerprinted on the selection and the
    function's own MIRlight digest, like {!analysis_obligations}. *)

val alias_obligations :
  ?lints:Analysis.Lint.kind list ->
  Hyperenclave.Layout.t ->
  Obligation.t list
(** One obligation per call-graph SCC running the Andersen points-to
    footprint lint ({!Analysis.Alias_lint}) when
    {!Analysis.Lint.Alias_footprint} is selected (empty otherwise).
    Depends on its callee SCCs' alias obligations and is fingerprinted
    on the layout plus the MIRlight digests of the SCC's transitive
    callee closure, like {!absint_obligations}'s secret-flow domain. *)

val code_proof_obligations :
  ?seed:int -> Hyperenclave.Layout.t -> (string * Obligation.t list) list
(** Per-layer code-proof obligations, bottom-up; exposed for tests and
    for cache-invalidation experiments.

    Dependency edges follow the call graph — a caller waits on exactly
    the spec-owned functions it calls directly — and each fingerprint
    digests only the function's own body plus its directly-used callee
    specs, so editing one function invalidates exactly itself and its
    direct callers.  The obligation thunk runs the override-composed
    battery (same-layer callees as stubs of their specs) once every
    stubbed callee has completed without failures, observed through
    the pool's [on_outcome] hook; otherwise — no stubs, or a callee
    crashed/was quarantined — it falls back to the monolithic battery
    ({!Check.Code_proof.run_function}), whose verdicts are identical
    (pinned by the differential suite). *)

val override_counts : Hyperenclave.Layout.t -> (string * int) list
(** Per spec-owned function (bottom-up, zeros included): the number of
    same-layer call-graph edges override composition stubs. *)

val stream_seed : seed:int -> string -> int
(** The per-obligation RNG stream split: deterministic in (seed, tag),
    independent of scheduling. *)
