(** The system's step relation (paper Sec. 5.1).

    CPU-local computation is nondeterministic in the paper; here it is
    parameterized by the concrete [Compute]/[Const] actions the checker
    chooses to exercise.  [Load]/[Store] resolve their address with the
    verified page walk — nested for enclaves, EPT-only for the OS —
    and treat the marshalling buffer with oracle semantics
    (Sec. 5.4).  Hypercalls apply {!Hyperenclave.Hypercall}, the low
    specs of the verified code plus enclave registration and a
    rollback on failure; [Enter]/[Exit] swap register contexts and the
    active principal.

    [Error] from {!step} means the action is {e disabled} in that
    state (page fault, wrong principal, lifecycle violation of
    enter/exit); the noninterference lemmas quantify over enabled
    steps. *)

type action =
  | Const of { dst : int; value : Mir.Word.t }  (** reg := immediate *)
  | Compute of { dst : int; src1 : int; src2 : int }  (** reg := reg + reg *)
  | Load of { dst : int; va : Mir.Word.t }
  | Store of { src : int; va : Mir.Word.t }
  | Hc_create of {
      elrange_base : Mir.Word.t;
      elrange_pages : int;
      mbuf_va : Mir.Word.t;
    }  (** OS only; status to reg 0, new eid to reg 1 *)
  | Hc_add_page of { eid : int; va : Mir.Word.t }  (** OS only; status to reg 0 *)
  | Hc_remove_page of { eid : int; va : Mir.Word.t }
      (** OS only (EREMOVE extension); status to reg 0 *)
  | Hc_init_done of { eid : int }  (** OS only; status to reg 0 *)
  | Hc_enter of { eid : int }  (** OS only; target must be initialized *)
  | Hc_exit  (** enclave only *)

val pp_action : Format.formatter -> action -> unit
val action_to_string : action -> string

val step : ?flush:bool -> State.t -> action -> (State.t, string) result
(** [flush] (default true) controls whether mapping-removing hypercalls
    invalidate the affected TLB entries; [flush:false] models the buggy
    monitor used by the stale-TLB demonstrations.
    [step = step_with ~hypercall]. *)

val hypercall :
  Hyperenclave.Absdata.t -> action -> int Hyperenclave.Hypercall.outcome
(** The monitor half of the four status-reporting hypercalls
    ([Hc_create], [Hc_add_page], [Hc_remove_page], [Hc_init_done]):
    {!Hyperenclave.Hypercall} applied to the monitor alone, with the
    new enclave id as [Hc_create]'s value and 0 as the others'.  Raises
    [Invalid_argument] on any other action. *)

val step_with :
  hypercall:(Hyperenclave.Absdata.t -> action -> int Hyperenclave.Hypercall.outcome) ->
  ?flush:bool -> State.t -> action -> (State.t, string) result
(** {!step} with its hypercall effect supplied: [step_with] applies
    [hypercall] to [st.mon] exactly where {!step} applies {!hypercall},
    and only to the four status-reporting hypercalls, after the
    caller check.  The model checker passes a memoized {!hypercall};
    another model of the hypercalls (the low specs without the
    rollback, say) plugs in here too. *)

val enabled : State.t -> action -> bool

val precondition : State.t -> action -> (unit, string) result
(** Enabledness decided without executing — and without the TLB fill a
    successful [step] walk performs.  Mirrors [step]'s failure
    decisions exactly: [Ok ()] iff [step st a] returns [Ok _] (pinned
    by a property test over reachable states and the action battery).
    Status-reporting hypercalls are always enabled for the OS: their
    failures become status codes, and the monitor is rolled back. *)

val enabled_of : State.t -> action list -> action list
(** The total enabledness enumerator the model checker expands with:
    the sublist of [actions] whose {!precondition} holds, in input
    order. *)

val configures : State.t -> Principal.t -> action -> bool
(** Whether the action legitimately reshapes [p]'s own view: a
    hypercall that creates, populates, seals or activates [p], or an
    activity transfer involving [p].  The per-primitive integrity
    property excludes these (they are covered by the pairwise
    consistency lemma instead). *)
