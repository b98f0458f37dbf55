(** The observation function V(p, σ) (paper Sec. 5.3).

    A principal observes: (1) the CPU registers when it is the active
    principal; (2) its own saved register context; (3) the mappings of
    the page tables that define its address space (for an enclave the
    composed GPT∘EPT view, which includes the immutable marshalling
    mapping; for the OS its EPT view); (4) the contents of reachable
    memory pages that are not shared — marshalling-buffer pages are
    excluded, their data is handled by the oracle; and (5) the oracle
    position (the declassification schedule is public, the data is
    not). *)

type view = {
  is_active : bool;
  cpu_regs : State.regs option;  (** present iff active *)
  saved_regs : State.regs;
  mappings : (Mir.Word.t * Mir.Word.t * Hyperenclave.Flags.t) list;
  pages : (Mir.Word.t * Mir.Word.t list) list;
      (** non-shared reachable pages: page base and word contents *)
  oracle_pos : int;
}

val observe : State.t -> Principal.t -> (view, string) result
(** A principal that does not exist yet (enclave id never created)
    observes only the CPU-facing components.  [observe] is
    {!observe_memory} of [st.mon] composed with the CPU half, and only
    the memory half can fail. *)

val view_equal : view -> view -> bool

(** {1 The memory half and the CPU half}

    A view splits in two.  Its memory half, the mappings (3) and the
    page contents (4), reads only the monitor's abstract state, so it
    is a function of [st.mon] and the principal.  Its CPU half (1, 2
    and 5) reads only [active], [regs], [ctx] and [oracles].  Hence
    the law, for [observe s p = Ok v] and [observe s' p = Ok v']:

    [view_equal v v'] iff [cpu_equal p s s'] and the memory halves of
    [s.mon] and [s'.mon] are equal.

    The model checker relies on it to observe each distinct monitor
    once per observer (see [Mc.Memo]). *)

type memory = {
  m_mappings : (Mir.Word.t * Mir.Word.t * Hyperenclave.Flags.t) list;
  m_pages : (Mir.Word.t * Mir.Word.t list) list;
}

val observe_memory :
  Hyperenclave.Absdata.t -> Principal.t -> (memory, string) result
(** The memory half of {!observe}: [observe st p] fails with this
    error, or carries these mappings and pages.  It walks the tables
    once and reads each distinct non-shared page once, a page at a time
    ({!Hyperenclave.Phys_mem.read_words}), so its cost is in the
    mappings and the nonzero words, not in per-word checks. *)

val cpu_equal : Principal.t -> State.t -> State.t -> bool
(** The CPU halves of [p]'s views of the two states are equal. *)

val indistinguishable : Principal.t -> State.t -> State.t -> (bool, string) result
(** V(p, σ1) = V(p, σ2). *)

(** {1 Comparing after a step}

    {!observe} reads [st.mon] for the mappings and the page contents,
    and only [active], [regs], [ctx] and [oracles] for the rest.  So
    when a step returns a state whose [mon] is the very same value
    ([==]) as before, the memory half of every view is unchanged, an
    observation error included.  Loads, register moves, stores to the
    marshalling buffer and enter/exit keep [mon]; the two comparisons
    below then compare only the CPU-facing components.  {!indistinguishable}
    stays the reference: each result equals the full comparison under
    the stated precondition. *)

val indistinguishable_after :
  Principal.t -> before:State.t * State.t -> State.t -> State.t -> (bool, string) result
(** [indistinguishable_after p ~before:(s1, s2) s1' s2'] is
    [indistinguishable p s1' s2'], provided
    [indistinguishable p s1 s2 = Ok true].  When [s1'.mon == s1.mon]
    and [s2'.mon == s2.mon] neither state is observed. *)

val unchanged_after :
  Principal.t -> before:State.t * (view, string) result -> State.t -> (bool, string) result
(** The one-state form, V(p, s) = V(p, s'): given [obs = observe s p],
    [unchanged_after p ~before:(s, obs) s'] is the first error of
    [obs] and [observe s' p], or [Ok (view_equal v v')].  When
    [s'.mon == s.mon], [s'] is not observed. *)
