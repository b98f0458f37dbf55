(** Code-conforms-to-specification checking.

    The paper's code proofs (Sec. 4.3) show that executing a function's
    MIR and executing its specification from related states produce
    related results.  Here the same statement is checked executably:
    for each generated case, the function body runs under the MIR
    small-step semantics — with lower layers replaced by their
    specifications — and the result (return value and abstract-state
    effect) is compared against the function's own specification.

    A case where the spec is undefined (precondition violated) is
    skipped; a case where the spec is defined but the code faults,
    diverges, or disagrees is a failure. *)

type 'abs case = {
  label : unit -> string;
      (** renders the case for a failure report; called only when the
          case fails, so it must read immutable inputs only *)
  abs : 'abs;
  args : 'abs Mir.Value.t list;  (** arguments the code is called with *)
  spec_args : 'abs Mir.Value.t list option;
      (** arguments for the specification when they differ — e.g. a
          method checked with a [&self] pointer into [mem] while the
          spec receives the struct by value (paper Sec. 3.4, case 1) *)
  mem : 'abs Mir.Mem.t;  (** initial object memory; owner-layer objects *)
}

val case :
  ?label:(unit -> string) -> ?spec_args:'abs Mir.Value.t list -> ?mem:'abs Mir.Mem.t ->
  'abs -> 'abs Mir.Value.t list -> 'abs case
(** The default label prints the arguments. *)

type 'abs equiv = {
  abs_eq : 'abs -> 'abs -> bool;
  ret_eq : 'abs Mir.Value.t -> 'abs Mir.Value.t -> bool;
}

val equiv :
  ?ret_eq:('abs Mir.Value.t -> 'abs Mir.Value.t -> bool) ->
  ('abs -> 'abs -> bool) ->
  'abs equiv
(** Default [ret_eq] is {!Mir.Value.equal}. *)

type 'abs check = {
  fn : string;  (** body name, must exist in the environment's program *)
  spec : 'abs Spec.t;
  cases : 'abs case Seq.t;
      (** the battery, as a stream: each traversal may regenerate the
          cases, so it must yield the same cases in the same order every
          time it is traversed, and no run keeps them past its fold *)
  eq : 'abs equiv;
  fuel : int;
}

val check :
  ?fuel:int -> fn:string -> spec:'abs Spec.t -> eq:'abs equiv -> 'abs case Seq.t ->
  'abs check

val run : ?ccache:'abs Mir.Compile.cache -> 'abs Mir.Interp.env -> 'abs check -> Report.t
(** Compiles the environment with {!Mir.Compile.compile} (against
    [ccache] when given) and delegates to {!run_compiled}. *)

val run_compiled : 'abs Mir.Compile.t -> 'abs check -> Report.t
(** The hot path: every case executes against the closure-compiled
    form of the environment.  Observationally identical to running
    under {!Mir.Interp.call} (pinned by the differential suite).  Each
    case boundary is a {!Cancel.poll} cancellation point. *)

val run_interp : 'abs Mir.Interp.env -> 'abs check -> Report.t
(** The degraded path: the same battery under the reference
    interpreter, no compilation.  The engine's supervisor runs this
    once in place of a crashed compiled run — any verdict difference between
    the two executors is a divergence worth flagging. *)

val run_all : 'abs Mir.Interp.env -> 'abs check list -> Report.t list

(** {1 Spec-to-spec simulation}

    Used for the page-table refinement (flat → tree, Sec. 4.1): both
    sides are specifications over different abstract states, related by
    [r]. *)

type ('lo, 'hi) simulation = {
  sim_name : string;
  lo : 'lo Spec.t;
  hi : 'hi Spec.t;
  relate : 'lo -> 'hi -> bool;  (** the refinement relation R *)
  ret_rel : 'lo Mir.Value.t -> 'hi Mir.Value.t -> bool;
}

val simulate :
  ('lo, 'hi) simulation ->
  cases:(string * 'lo * 'hi * 'lo Mir.Value.t list) list ->
  Report.t
(** Each case supplies a pair of R-related states and the argument
    list (arguments are state-independent values, reused on both
    sides).  The check: if the high spec is defined, the low spec must
    be defined, results must be [ret_rel]-related and final states
    R-related.  High-undefined cases are skipped. *)
