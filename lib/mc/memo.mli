(** One exploration's memo of the functions that read only the monitor.

    The invariants, the hypercall effects, the monitor part of the
    state key, the memory half of every view and the memory half of a
    perturbed twin read only a state's monitor, [st.mon], yet the
    explorer meets the same few monitors in many states.  A memo
    interns every monitor it meets by content
    ({!Hyperenclave.Absdata.hash}, then {!Hyperenclave.Absdata.equal}):
    each distinct monitor gets one canonical object and a small id, and
    each monitor-only result is computed once per id.  A state whose
    step keeps its parent's monitor object ([==]) inherits the parent's
    id without a lookup.

    Each memoized result equals the plain function's: test/mc checks
    {!step}, {!twin}, {!invariants}, {!digest}, {!indistinguishable}
    and {!unchanged} against [Transition.step], [Gen.perturb_secrets],
    [Invariants.check], [State_key.digest] and the
    {!Security.Observation} comparisons.

    The explorer makes one memo per [Explore.run] call and drops it on
    return; nothing in this module is global. *)

type t

val create : flush:bool -> seed:int -> t
(** Empty tables: [flush] picks the monitor {!step} runs
    ([Transition.step ~flush]; [false] is the buggy one), [seed] is the
    perturbation seed of {!twin}. *)

type node
(** A machine state whose monitor is interned: its [mon] is the
    canonical object of its id. *)

val node : t -> Security.State.t -> node
(** Intern the state's monitor. *)

val state : node -> Security.State.t

val id : node -> int
(** The monitor's id: two nodes have equal ids iff their monitors are
    [Absdata.equal]. *)

val derive : t -> parent:node -> Security.State.t -> node
(** A state reached from [parent]: it inherits the parent's id when its
    monitor is the parent's object, and is interned otherwise. *)

val step : t -> node -> Security.Transition.action -> (node, string) result
(** [Transition.step ~flush], through [Transition.step_with] with each
    hypercall effect computed once per (monitor id, action). *)

val twin : t -> observer:Security.Principal.t -> node -> node
(** [Check.Gen.perturb_secrets ~seed ~observer]: the monitor half
    ([Gen.perturb_memory]) is computed once per (monitor id, observer),
    the register half per call. *)

val invariants : node -> (unit, string) result
(** [Invariants.check] of the node's monitor, once per id. *)

val digest : node -> string
(** [State_key.digest (state n)]: the monitor part of the key
    ([State_key.mon_string]) is serialized once per id. *)

val indistinguishable :
  t -> Security.Principal.t -> node -> node -> (bool, string) result
(** [Observation.indistinguishable p (state a) (state b)]: the first
    observation error, or [Ok] of [Observation.cpu_equal] and equal
    memory-view ids.  Each (monitor id, observer) memory half is
    computed once, and gets an exact view id: two memory halves share
    an id iff their mappings and page contents are equal. *)

val unchanged : t -> Security.Principal.t -> before:node -> node -> bool
(** [p]'s view is the same in both states: equal views, or two
    observation errors with equal messages.  When both observations
    succeed, this is [Observation.unchanged_after]'s verdict. *)

val monitors : t -> int
(** Distinct monitors interned so far. *)

val views_computed : t -> int
(** Memory halves computed so far: one per (monitor id, observer)
    pair that a comparison has needed. *)
