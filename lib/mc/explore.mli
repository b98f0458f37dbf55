(** Explicit-state bounded exploration of the security transition
    system.

    Breadth-first enumeration of every interleaving of the
    {!Universe} events up to a depth bound, on one small geometry.
    The visited set is deduplicated by {!State_key.digest}; when
    partial-order reduction is on, sleep sets derived from the
    {!Footprint} commutation table skip the redundant orders of
    commuting adjacent events (with the explored-set refinement that
    keeps sleep sets sound in the presence of state caching: a revisit
    with a smaller sleep set re-expands exactly the transitions the
    first visit blocked).  Sleep sets prune only {e transitions},
    never states, and commuting swaps preserve path length, so the
    reachable state set within the bound — and with it every
    state-level verdict — is identical with and without reduction.

    At every newly reached state the checker runs the Sec. 5.2
    invariants, TLB consistency, and the two-run step-
    indistinguishability checks (a perturbed-secrets twin per observer
    must stay indistinguishable across every enabled action); across
    every executed transition it checks hypercall transactionality and
    the integrity lemma (a non-configuring step leaves bystander views
    unchanged).  Violating interleavings are minimized with
    {!Check.Shrink} ddmin before reporting.

    Each state's successor row — every action's precondition and, on
    first use, its step — is computed once and shared by the observers;
    only the twin's side is stepped per observer.  Views after a step
    are compared with {!Security.Observation.indistinguishable_after}
    and {!Security.Observation.unchanged_after}, which compare only
    the CPU-facing components when the step kept the monitor state; a
    state's own observations are made once per expansion, when its
    first outgoing edge needs them.  The ddmin replay predicate uses
    the same comparisons, so a shrunk witness violates exactly the
    property that was recorded.

    Exploration is deterministic: same config, same outcome, bit for
    bit — the engine shards the depth-[root_depth] frontier by
    state-key prefix and unions per-shard outcomes, which commutes
    with running the whole exploration in one piece. *)

type config = {
  layout : Hyperenclave.Layout.t;
  universe : Fault.Chaos.event list;
  depth : int;  (** exploration bound, in events from boot *)
  flush : bool;  (** [false] = the buggy monitor ([--buggy-tlb]) *)
  por : bool;  (** sleep-set partial-order reduction *)
  checks : bool;  (** run the violation checks (off for frontier derivation) *)
  ni : bool;  (** include the step-noninterference checks *)
  observers : Security.Principal.t list;
  ni_seed : int;  (** seed for the perturbed-secrets twins *)
}

val config :
  ?depth:int ->
  ?flush:bool ->
  ?por:bool ->
  ?checks:bool ->
  ?ni:bool ->
  ?observers:Security.Principal.t list ->
  ?ni_seed:int ->
  Hyperenclave.Layout.t ->
  config
(** Defaults: depth 4, correct monitor, reduction and all checks on,
    observers OS + enclaves 1 and 2, twin seed 2024, universe
    {!Universe.events}. *)

type violation = {
  v_kind : string;
      (** "invariant", "tlb-consistency", "transactionality",
          "status-code", "integrity", "ni-pair", "ni-consistency" or
          "precondition" *)
  v_detail : string;
  v_state : string;  (** digest of the violating state *)
  v_trace : Fault.Chaos.event list;  (** boot-anchored discovery trace *)
  v_witness : Fault.Chaos.event list;  (** ddmin-shrunk *)
  v_evals : int;  (** replays the shrinker spent *)
}

type stats = {
  explored : int;  (** unique canonical states *)
  transitions : int;  (** edges executed *)
  deduped : int;  (** edges into already-visited states *)
  pruned : int;  (** expansions skipped by sleep sets *)
}

type item
(** A frontier entry: a state at the depth bound with its discovery
    trace, ready to seed a deeper exploration. *)

val item_key : item -> string
(** The state digest — the engine shards the frontier by its prefix. *)

type outcome = {
  stats : stats;
  keys : string list;  (** sorted digests of every visited state *)
  violations : violation list;  (** discovery order, deduped by (kind, state) *)
  frontier : item list;  (** states first reached at exactly [depth] *)
}

val run : config -> outcome
(** Explore from the booted state. *)

val interleavings : config -> int
(** The number of enabled event sequences of length 1..[depth] a
    tree-shaped (dedup-free) walk traverses — under sleep sets when
    [por] is set, the full enabled tree otherwise.  The ratio of the
    two is the reduction's interleaving-level pruning factor (each
    skipped expansion cuts a whole subtree, which per-edge statistics
    on the deduplicated graph undercount). *)

val run_from : config -> roots:item list -> outcome
(** Explore from previously produced frontier items (their recorded
    depths count against [config.depth]); used by the engine's shard
    obligations.  [run cfg] = [run_from cfg ~roots:[boot]]. *)

(** {1 Obligation-outcome serialization}

    Shard results travel through {!Engine.Obligation.outcome.log} as
    deterministic text; the driver parses the per-obligation payloads
    back and folds them into one rollup whose numbers are independent
    of job count and cache state. *)

type parsed_violation = {
  p_kind : string;
  p_detail : string;
  p_state : string;
  p_evals : int;
  p_witness : string list;  (** rendered events *)
}

type parsed = {
  p_stats : stats;
  p_keys : string list;
  p_violations : parsed_violation list;
}

type rollup = {
  r_states : int;  (** size of the union of the visited sets *)
  r_transitions : int;
  r_deduped : int;  (** per-part dedup plus cross-part overlap *)
  r_pruned : int;
  r_violations : parsed_violation list;  (** deduped by (kind, state) *)
}

val to_log : outcome -> string
val parse_log : string -> parsed
val rollup : parsed list -> rollup

val min_witness : rollup -> int option
(** Length of the shortest shrunk witness, when any violation exists. *)
