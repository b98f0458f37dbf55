(** The chaos driver: randomized fault-injected traces over the
    transition system, with per-step robustness checks.

    A trace is a seed-derived list of {!event}s — transition-system
    actions interleaved with {!Plan} faults — replayed from the booted
    state.  After every event the driver checks:

    - {b graceful degradation}: no event may raise; every failure is a
      structured [result] (an OCaml exception anywhere is itself a
      counterexample);
    - {b transactionality}: a status-reporting hypercall that returns
      non-[Success] must leave the monitor's abstract state unchanged,
      and [enter]/[exit] never touch it (see
      {!Hyperenclave.Hypercall});
    - {b invariants}: the Sec. 5.2 invariants hold after every enabled
      step, until a corrupting fault ({!Plan.corrupts}) puts the state
      outside the reachable set;
    - {b TLB consistency}: every cached translation agrees with the
      current page walk ({!tlb_consistent}) — the check the
      [~flush:false] buggy monitor fails.

    When a trace fails, the driver re-derives it from its seed and
    minimizes it with {!Check.Shrink} before reporting. *)

type event =
  | Act of Security.Transition.action
  | Inject of Plan.t

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string

type failure = {
  at : int;  (** index of the offending event *)
  event : event option;
  check : string;  (** "exception", "transactionality", "status-code",
                       "invariant" or "tlb-consistency" *)
  reason : string;
}

val pp_failure : Format.formatter -> failure -> unit

type summary = {
  ran : int;  (** events executed (a [Truncate] stops the trace) *)
  applied : int;  (** faults injected *)
  skipped : int;  (** faults not applicable in their state *)
  disabled : int;  (** actions the step relation rejected *)
}

type stats = {
  traces : int;
  events : int;
  faults : int;
  fault_skips : int;
  disabled_steps : int;
}

type counterexample = {
  cx_seed : int;  (** replaying this seed re-derives [cx_events] *)
  cx_events : event list;
  cx_shrunk : event list;  (** 1-minimal failing subtrace *)
  cx_failure : failure;  (** what the shrunk trace violates *)
  cx_evals : int;  (** replays the shrinker spent *)
}

val pp_counterexample : Format.formatter -> counterexample -> unit

val tlb_consistent : Security.State.t -> (unit, string) result
(** Every cached translation equals the current walked one. *)

val transactional :
  before:Security.State.t -> after:Security.State.t ->
  Security.Transition.action -> (unit, string * string) result
(** Transactionality of one step: a status-reporting hypercall that
    returns non-[Success] must leave the monitor's abstract state
    unchanged, and [enter]/[exit] never touch it.  [Error] carries
    [(check, reason)] where [check] is ["transactionality"] or
    ["status-code"].  Shared with the model checker, which applies it
    to every executed transition. *)

val replay :
  ?flush:bool -> Hyperenclave.Layout.t -> event list ->
  (summary, failure) result
(** Run one event list from boot with all checks. *)

val events_for :
  ?faults:Plan.kind list -> seed:int -> len:int -> Hyperenclave.Layout.t ->
  event list
(** The deterministic trace a seed denotes ([faults] defaults to
    {!Plan.all_kinds}; pass [[]] for a fault-free trace). *)

val run :
  ?flush:bool -> ?faults:Plan.kind list -> ?len:int ->
  seed:int -> traces:int -> Hyperenclave.Layout.t ->
  stats * counterexample option
(** Replay [traces] seed-derived traces ([seed], [seed+1], ...); stop
    at the first failure and return it shrunk.  [len] defaults to 40
    events per trace. *)
