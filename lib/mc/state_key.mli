(** Hashed canonical machine-state representation.

    The explicit-state checker dedups its visited set by a digest of
    the machine state.  Two {!Security.State.t} values that the
    transition system cannot distinguish must serialize identically,
    so {!canonicalize} first drops the representation slack:

    - oracle-map entries that still equal a fresh default stream
      ([State.oracle_of] conjures exactly that default for absent
      principals, and [State.equal] already treats them as equal);
    - saved-context entries that are all-zero ([State.saved_ctx]
      defaults absent principals to zeroed registers).

    The monitor components need no canonicalization: {!Hyperenclave}'s
    physical memory stores only nonzero words, the frame allocator and
    EPCM expose order-normalized folds, and the TLB lists entries in
    key order.

    The laws pinned by the test suite: canonicalization is idempotent,
    [State.equal] states digest equal, and stepping commutes with
    canonicalization ([digest (step (canonicalize s) a) =
    digest (step s a)]). *)

val canonicalize : Security.State.t -> Security.State.t

val to_string : Security.State.t -> string
(** Deterministic serialization of the canonicalized state: active
    principal, live registers, saved contexts, oracle positions (with
    a short stream sample, so replay oracles at the same position do
    not collide with the default), TLB entries, and the full monitor
    abstract state (nonzero physical words, allocated frames, EPCM
    entries, enclave metadata, next eid, EPT root). *)

val digest : Security.State.t -> string
(** Hex digest of {!to_string} — the visited-set key. *)

val mon_string : Hyperenclave.Absdata.t -> string
(** The monitor part of {!to_string}, which ends with it: a function of
    the monitor alone, equal for [Absdata.equal] monitors. *)

val digest_with : mon:string -> Security.State.t -> string
(** [digest st] when [mon] is [mon_string st.mon]: the explorer passes
    the monitor part its memo serialized once per distinct monitor. *)
