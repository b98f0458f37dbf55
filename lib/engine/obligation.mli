(** A single schedulable unit of the verification pass.

    The pass is reified as a DAG of obligations: one per code-proof
    function, per refinement-simulation shard, per invariant /
    noninterference state batch, and per attack scenario.  An
    obligation is pure: [run] depends only on the inputs captured at
    plan-build time, so executing it in any order, or replaying it
    from the proof cache, yields the same outcome. *)

type outcome = {
  reports : Mirverif.Report.t list;
      (** the obligation's check reports, merged by the driver in
          obligation-id order — results are independent of scheduling *)
  log : string;
      (** deterministic human-readable lines (e.g. the attack-scenario
          verdict text), printed by the driver in id order *)
  findings : (string * Analysis.Lint.finding) list;
      (** lint findings tagged with the containing function, carried
          structurally so the driver can render them and emit
          [--lint-json] without re-parsing report text *)
}

type t = {
  id : string;
      (** unique and stable, e.g. ["code-proof/PtMap/map_page"]; part of
          the proof-cache key *)
  phase : string;  (** display/aggregation group, e.g. ["code-proofs"] *)
  deps : string list;  (** obligation ids that must complete first *)
  fingerprint : string;
      (** content description of every input the outcome depends on
          (MIRlight of the functions involved, layout geometry, seed,
          budgets); the cache key is a digest of this plus the engine
          version *)
  run : unit -> outcome;
  fallback : (unit -> outcome) option;
      (** degraded-mode evaluator for the supervisor's ladder: an
          observationally equivalent but more conservative way to
          discharge the same obligation (code proofs fall back from the
          compiled-closure battery to the reference interpreter).  Run
          once, after every [run] attempt has crashed; must depend on
          the same fingerprinted inputs, so its outcome is cacheable. *)
  on_outcome : (outcome -> unit) option;
      (** invoked by the pool with the obligation's outcome on {e every}
          completion path — live execution, crash placeholder, and cache
          hit alike — before dependents are released.  The hook behind
          the override-composition proven gate: a callee marks itself
          proven here, so its callers (DAG dependents) observe the mark
          no matter how the callee's outcome was obtained.  Must be
          idempotent: under engine chaos a restarted worker can
          re-execute an obligation whose hook already ran. *)
}

val v :
  id:string -> phase:string -> ?deps:string list -> fingerprint:string ->
  ?fallback:(unit -> outcome) -> ?on_outcome:(outcome -> unit) ->
  (unit -> outcome) -> t

val outcome :
  ?log:string ->
  ?findings:(string * Analysis.Lint.finding) list ->
  Mirverif.Report.t list ->
  outcome
val failure_count : outcome -> int

val case_totals : outcome list -> int * int * int * int
(** (total, passed, skipped, failed) over the reports of a result set. *)
