(** Supervised execution of a single obligation: one attempt under an
    optional deadline, a fallback, and quarantine.

    {!Pool} routes every cache miss through {!supervise}.  An
    obligation's outcome is a pure function of its fingerprinted
    inputs, so a second attempt would only rerun the same computation:
    each obligation runs once.

    - A clean run is [Completed] and cacheable.
    - An exception is a crash.  When the obligation carries a
      [fallback] (code proofs: the reference interpreter in place of
      the compiled-closure battery), the fallback runs once and its
      outcome stands in, flagged [Fell_back]; it is cacheable, since it
      depends on the same inputs.  Otherwise, or when the fallback
      fails too, the obligation is quarantined with a one-failure
      report: case ["exception"], reason ["obligation raised: …"].
    - A timeout is quarantined with case ["timeout"].  It never falls
      back: the fallback is the slower executor.

    A quarantined outcome describes this run's misfortune, not its
    inputs, so it is never cached.

    Timeouts are cooperative.  OCaml code cannot be interrupted
    asynchronously, so the supervisor arms one deadline slot and
    installs the global [Mirverif.Cancel] hook; check batteries poll at
    case/trial boundaries, and once the {!Clock} passes the deadline
    the poll raises [Mirverif.Cancel.Deadline_exceeded], which the
    supervisor turns into a timeout.  A computation that never polls
    can overrun its deadline. *)

type status = Ran_ok | Crashed of string  (** raw exception text *) | Timed_out

type resolution =
  | Completed  (** clean (or a cache hit) *)
  | Fell_back  (** the run crashed; the fallback's outcome stands in *)
  | Quarantined  (** the outcome is a synthesized failure report *)

type trail = {
  attempt : status option;
      (** how the one attempt went; [None] for a cache hit, or for an
          obligation the pool never ran *)
  resolution : resolution;
}

val cached : trail
(** The trail of a cache hit: no attempt, [Completed]. *)

type result = {
  outcome : Obligation.outcome;
  trail : trail;
  cacheable : bool;
      (** whether [outcome] reflects the fingerprinted inputs (clean and
          fallback runs) rather than this run's misfortune (quarantine) *)
}

type config = {
  timeout : float option;  (** deadline of the attempt, seconds *)
  retries : int;
      (** inert: an obligation runs once whatever this says.  Kept
          only because [bench/e2e] still sets it (ROADMAP item 3). *)
  seed : int;  (** inert, like [retries] and for the same reason *)
}

val default : config
(** No deadline. *)

val supervise : config -> Obligation.t -> result

val crash_outcome : Obligation.t -> string -> Obligation.outcome
(** [crash_outcome o reason]: the one-failure report of a crash, case
    ["exception"], reason ["obligation raised: " ^ reason]. *)

val status_to_string : status -> string
(** ["ok"], ["crash"], ["timeout"]. *)

val resolution_to_string : resolution -> string
(** ["completed"], ["fell-back"], ["quarantined"]. *)

val eventful : trail -> bool
(** Anything beyond a clean attempt or a cache hit: the trails worth a
    trace event and a summary line. *)

type totals = {
  supervised : int;  (** obligations with an eventful trail *)
  retried : int;
      (** inert, always 0: nothing is retried.  Kept only because
          [bench/e2e] still reads it (ROADMAP item 3). *)
  fell_back : int;
  quarantined : int;
  timeouts : int;
  crashes : int;
}

val totals : trail list -> totals
