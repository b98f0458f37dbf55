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
    data is declassified through the oracle, not memory). *)

val trace : seed:int -> steps:int -> Hyperenclave.Layout.t -> Security.State.t
(** Run a random [steps]-long action trace from boot. *)

val states :
  ?n:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Security.State.t) list
(** Labelled reachable states ([n] defaults to 20). *)

val states_range :
  lo:int -> hi:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Security.State.t) list
(** States [lo..hi-1] of the same sequence {!states} enumerates: the
    obligation engine shards a state battery into index ranges and the
    concatenation of the shards is byte-identical to the whole. *)

val absdata_states :
  ?n:int -> seed:int -> steps:int -> Hyperenclave.Layout.t ->
  (string * Hyperenclave.Absdata.t) list
(** The monitor components of {!states}. *)

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

val secret_pairs :
  ?n:int -> seed:int -> steps:int -> observer:Security.Principal.t ->
  Hyperenclave.Layout.t ->
  (string * Security.State.t * Security.State.t) list
(** Pairs (σ, perturb σ), indistinguishable to [observer] by
    construction. *)

val secret_pairs_range :
  lo:int -> hi:int -> seed:int -> steps:int ->
  observer:Security.Principal.t -> Hyperenclave.Layout.t ->
  (string * Security.State.t * Security.State.t) list
(** Pairs [lo..hi-1] of the {!secret_pairs} sequence (sharding, as for
    {!states_range}). *)

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
