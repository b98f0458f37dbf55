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
    bit.  The engine runs it as one obligation, so each reachable state
    is visited once, and one [--timeout-ms] deadline covers the whole
    exploration. *)

type config = {
  layout : Hyperenclave.Layout.t;
  universe : Fault.Chaos.event list;
  depth : int;  (** exploration bound, in events from boot *)
  flush : bool;  (** [false] = the buggy monitor ([--buggy-tlb]) *)
  por : bool;  (** sleep-set partial-order reduction *)
}

val config :
  ?depth:int -> ?flush:bool -> ?por:bool -> Hyperenclave.Layout.t -> config
(** Defaults: depth 4, correct monitor, reduction on, universe
    {!Universe.events}.  Every check runs, with observers OS and
    enclaves 1 and 2, and perturbed-secrets twins drawn from seed
    2024. *)

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

type outcome = {
  stats : stats;
  keys : string list;  (** sorted digests of every visited state *)
  violations : violation list;
      (** BFS discovery order, deduped by (kind, state) *)
}

val run : config -> outcome
(** Explore breadth-first from the booted state to [config.depth],
    visiting each canonical state once.  Polls {!Mirverif.Cancel} once
    per dequeued state, so an obligation deadline cancels it. *)

val interleavings : config -> int
(** The number of enabled event sequences of length 1..[depth] a
    tree-shaped (dedup-free) walk traverses — under sleep sets when
    [por] is set, the full enabled tree otherwise.  The ratio of the
    two is the reduction's interleaving-level pruning factor (each
    skipped expansion cuts a whole subtree, which per-edge statistics
    on the deduplicated graph undercount). *)

(** {1 Obligation-outcome serialization}

    The model-check obligation's outcome travels through
    {!Engine.Obligation.outcome.log} — and the proof cache — as
    deterministic text; the driver parses it back into the rollup it
    prints, whatever the cache state. *)

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
  r_states : int;  (** visited states *)
  r_transitions : int;  (** edges executed *)
  r_deduped : int;  (** edges into already-visited states *)
  r_pruned : int;  (** expansions skipped by sleep sets *)
  r_violations : parsed_violation list;  (** discovery order *)
}

val to_log : outcome -> string

val parse_log : string -> parsed
(** Inverse of {!to_log}; the empty log parses to zero stats and no
    keys or violations. *)

val rollup : parsed -> rollup
(** The numbers a run reports: one exploration's stats and violations. *)

val min_witness : rollup -> int option
(** Length of the shortest shrunk witness, when any violation exists. *)
