(** Explicit-state bounded exploration of the security transition
    system.

    Breadth-first enumeration of every interleaving of the
    {!Universe} events up to a depth bound, on one small geometry.
    From each state every enabled event is stepped once; a successor
    whose {!State_key.digest} is already in the visited set is counted
    as deduplicated and not explored again.  BFS reaches states in
    order of depth, so each state is checked and expanded once, at its
    minimal depth, and a run's counts satisfy
    [deduped = transitions - (explored - 1)].

    At every newly reached state the checker runs the Sec. 5.2
    invariants, TLB consistency, and the two-run step-
    indistinguishability checks (a perturbed-secrets twin per observer
    must stay indistinguishable across every enabled action); across
    every executed transition it checks hypercall transactionality and
    the integrity lemma (a non-configuring step leaves bystander views
    unchanged).  Violating interleavings are minimized with
    {!Check.Shrink} ddmin before reporting.

    Each run keeps one {!Memo}: every monitor it meets (real states,
    perturbed twins, successors) is interned by content and gets a
    small id, and the results that read only the monitor are computed
    once per id: the invariants, the four hypercall effects, the
    memory half of a twin, and the memory half of each observer's view,
    which becomes an exact view id.  Two views are then equal iff their
    CPU halves are ({!Security.Observation.cpu_equal}) and their
    memory-view ids match; an integrity check counts two observation
    errors as the same view iff their messages are equal.  The memo
    lives for one {!run} call, so nothing outlives it.

    Each state's successor row — every action's precondition and, on
    first use, its step — is computed once and shared by the observers;
    only the twin's side is stepped per observer.  The ddmin replay
    predicate uses the same memo and the same comparisons, so a shrunk
    witness violates exactly the property that was recorded.

    Exploration is deterministic: same config, same outcome, bit for
    bit.  The engine runs it as one obligation, so each reachable state
    is visited once, and one [--timeout-ms] deadline covers the whole
    exploration. *)

type config = {
  layout : Hyperenclave.Layout.t;
  universe : Fault.Chaos.event list;
  depth : int;  (** exploration bound, in events from boot *)
  flush : bool;  (** [false] = the buggy monitor ([--buggy-tlb]) *)
}

val config : ?depth:int -> ?flush:bool -> Hyperenclave.Layout.t -> config
(** Defaults: depth 4, correct monitor, universe
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
  r_pruned : int;
      (** Inert, always 0: the explorer prunes nothing.  Kept only
          because the benchmark harness ([bench/e2e]) still reads it. *)
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
