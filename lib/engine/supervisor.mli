(** Supervised execution of a single obligation: per-attempt deadlines,
    deterministic retry with exponential backoff, a degradation ladder,
    and quarantine.

    {!Pool} routes every cache miss through {!supervise}.  With
    {!default} (no timeout, no retries, no chaos) the behaviour is
    byte-identical to the unsupervised pool: one attempt, any exception
    absorbed into the legacy one-failure crash report, never cached.

    Timeouts are cooperative.  OCaml code cannot be interrupted
    asynchronously, so the supervisor arms one deadline slot and
    installs the global [Mirverif.Cancel] hook; check batteries poll at
    case/trial boundaries, and once the {!Clock} passes the deadline
    the poll raises [Mirverif.Cancel.Deadline_exceeded], which the
    supervisor converts into a timed-out attempt.

    Every retry, backoff, and quarantine decision is a pure function of
    (config, obligation id, attempt number) — backoff jitter comes from
    a per-(seed, id, attempt) hash stream, never a shared RNG — so
    supervision decisions do not depend on the order obligations run
    in.

    The ladder, in order: a crashed attempt is retried (with backoff)
    up to [retries] times; if every attempt crashed and the obligation
    carries a [fallback] (code proofs: the reference interpreter
    replacing the compiled-closure battery), the fallback runs once and
    its outcome — flagged as a divergence — stands in; otherwise the
    obligation is quarantined with a structured failure report.
    Corrupt cache entries (evict + recompute) and a dead worker
    (respawn in place while the budget lasts) are handled by {!Cache}
    and {!Pool} respectively. *)

type status = Ran_ok | Crashed of string  (** raw exception text *) | Timed_out

type attempt = {
  n : int;  (** 1-based attempt number *)
  status : status;
  injected : Fault.Plan.engine_kind option;
      (** the chaos fault applied to this attempt, if any *)
  backoff : float;
      (** delay slept before the next attempt; [0.] on the last *)
}

type resolution =
  | Completed  (** clean on the first attempt (or a cache hit) *)
  | Recovered  (** succeeded after at least one failed attempt *)
  | Fell_back  (** every attempt crashed; the fallback's outcome stands in *)
  | Quarantined  (** gave up; the outcome is a synthesized failure report *)

type trail = { attempts : attempt list;  (** chronological *) resolution : resolution }

val cached : trail
(** The trail of a cache hit: no attempts, [Completed]. *)

type result = {
  outcome : Obligation.outcome;
  trail : trail;
  cacheable : bool;
      (** whether [outcome] reflects the fingerprinted inputs (clean and
          fallback runs) rather than this run's misfortune (quarantine) *)
}

type config = {
  timeout : float option;  (** per-attempt deadline, seconds *)
  retries : int;  (** additional attempts after the first *)
  backoff_base : float;  (** seconds; doubles per attempt *)
  backoff_max : float;  (** cap on the nominal (pre-jitter) delay *)
  seed : int;  (** jitter stream seed *)
  sleep : float -> unit;  (** backoff/hang sleeper — mockable in tests *)
  chaos : Engine_chaos.t option;
}

val default : config
(** No timeout, no retries, no chaos — the unsupervised behaviour. *)

val supervise : config -> Obligation.t -> result

val backoff_delay : config -> id:string -> attempt:int -> float
(** The exact delay [supervise] sleeps after failed attempt [attempt]
    of obligation [id]: [min(backoff_max, base·2^(n-1)) · (1+jitter)],
    jitter in [0, 1) from the per-(seed, id, attempt) stream.  Exposed
    so tests and the trace can assert determinism. *)

val status_to_string : status -> string
(** ["ok"], ["crash"], ["timeout"]. *)

val resolution_to_string : resolution -> string

val eventful : trail -> bool
(** Anything beyond a clean single attempt or a cache hit — the trails
    worth a trace event and a summary line. *)

type totals = {
  supervised : int;  (** obligations with an eventful trail *)
  retried : int;  (** obligations that took more than one attempt *)
  recovered : int;
  fell_back : int;
  quarantined : int;
  timeouts : int;  (** timed-out attempts, summed *)
  crashes : int;  (** crashed attempts, summed *)
}

val totals : trail list -> totals
