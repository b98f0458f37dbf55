(** Generators of machine states, state pairs, and action batteries.

    States are reached by running random action traces from the booted
    state through the real transition relation, so every generated
    state is {e reachable} — which is what the invariant-preservation
    and noninterference theorems quantify over.

    Pairs for the confidentiality lemmas share their public structure
    (same trace) and differ only in secrets invisible to the given
    observer: other principals' EPC page contents, saved register
    contexts, an inactive observer's live registers, normal memory when
    the observer is an enclave, and marshalling-buffer bytes (whose
    data is declassified through the oracle, not memory).

    One path generates them all: a {!Corpus} holds each trace, each
    enclave-active variant and each secret pair it has built, and the
    list generators ({!states_range}, {!states}, {!absdata_states},
    {!secret_pairs}) are wrappers over a corpus made for the call and
    dropped on return. *)

val trace : seed:int -> steps:int -> Hyperenclave.Layout.t -> Security.State.t
(** Run a random [steps]-long action trace from boot. *)

val ensure_enclave_active :
  ?prefer:int -> Hyperenclave.Layout.t -> Security.State.t -> Security.State.t
(** Best-effort switch into an enclave (creating and sealing one when
    necessary); with [prefer], into that specific enclave id. *)

val perturb_secrets :
  seed:int -> observer:Security.Principal.t -> Security.State.t ->
  Security.State.t
(** Rewrite state components outside the observer's view:
    {!perturb_memory} of [st.mon], then {!perturb_registers} with the
    generator it returns. *)

val perturb_memory :
  seed:int -> observer:Security.Principal.t -> Hyperenclave.Absdata.t ->
  Hyperenclave.Absdata.t * Rng.t
(** The monitor half of {!perturb_secrets}: scribble over other
    enclaves' EPC pages, over normal memory when the observer is an
    enclave, and over the marshalling buffer.  It reads only the
    monitor, the observer and the seed, and returns the generator for
    the register half. *)

val perturb_registers :
  Rng.t -> observer:Security.Principal.t -> Security.State.t ->
  Security.State.t
(** The register half of {!perturb_secrets}: randomize the saved
    contexts of other principals, and the live registers when another
    principal is active. *)

(** The states and pairs of one base seed, step count and layout, each
    generated once however many readers ask for it.

    A verification plan makes one corpus, empty, and its invariant,
    noninterference and trace-noninterference obligations read their
    inputs from it, so the corpus fills only as those obligations run:
    a run that replays them all from the proof cache generates
    nothing.  The corpus owns its seed, step count and layout; readers
    pass only an index, a seed offset and an observer, so no reader
    can meet a corpus built for other parameters.  Every value it
    holds is an immutable state, safe to share between obligations.
    An entry is stored only once computed: a generation that raises
    stores nothing, and the next reader computes it again.  Nothing is
    global; the tables go with the corpus. *)
module Corpus : sig
  type t

  val create : seed:int -> steps:int -> Hyperenclave.Layout.t -> t
  (** An empty corpus. *)

  val states : t -> lo:int -> hi:int -> (string * Security.State.t) list
  (** Labelled reachable states [lo..hi-1]: state [i] is the
      [steps]-long {!trace} of [seed + i], switched into an enclave
      ({!ensure_enclave_active}) when [i] is odd. *)

  val pairs :
    t -> off:int -> observer:Security.Principal.t -> n:int ->
    (string * Security.State.t * Security.State.t) list
  (** The first [n] pairs (σ, perturb σ) of base seed [seed + off],
      indistinguishable to [observer] by construction: pair [i] starts
      from the trace of [seed + off + i], switched into an enclave (the
      observer, when it is one) when [i] is odd, and perturbs it with
      {!perturb_secrets} at seed [seed + off + i + 7919]. *)

  val traces : t -> int
  (** Traces generated so far: one per distinct [seed + k] read. *)
end

val states :
  ?n:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Security.State.t) list
(** Labelled reachable states ([n] defaults to 20): [Corpus.states] of
    a fresh corpus. *)

val states_range :
  lo:int -> hi:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Security.State.t) list
(** States [lo..hi-1] of the same sequence {!states} enumerates. *)

val absdata_states :
  ?n:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Hyperenclave.Absdata.t) list
(** The monitor components of {!states}. *)

val secret_pairs :
  ?n:int -> seed:int -> steps:int -> observer:Security.Principal.t ->
  Hyperenclave.Layout.t ->
  (string * Security.State.t * Security.State.t) list
(** Pairs (σ, perturb σ), indistinguishable to [observer] by
    construction ([n] defaults to 20): [Corpus.pairs ~off:0] of a fresh
    corpus. *)

val schedules :
  ?n:int -> ?len:int -> seed:int -> Hyperenclave.Layout.t ->
  Security.Transition.action list list
(** Random multi-step schedules for the trace-level noninterference
    check ([n] defaults to 10, [len] to 12). *)

val action_battery : Hyperenclave.Layout.t -> Security.Transition.action list
(** A representative set of actions: register ops, loads and stores
    across every region (ELRANGE, mbuf window, normal memory, secure
    memory, unmapped), and all five hypercalls with valid and invalid
    arguments. *)

val random_action : Rng.t -> Hyperenclave.Layout.t -> Security.Transition.action * Rng.t
