(** The obligation scheduler: runs a DAG on the calling domain.

    [run dag] executes every obligation, respecting dependency edges.
    A FIFO queue holds the ready obligation ids and a count of unmet
    dependencies per obligation tracks the rest: the pool takes the
    next id, runs it (cache lookup, supervision, then the obligation's
    [on_outcome] hook), records the result and queues each dependent
    whose last dependency this was.  A process gets its parallelism
    from the daemon's forked fleet, not from a second domain.

    [?jobs] is accepted only as [1], the value the end-to-end benchmark
    still passes; any other value raises [Invalid_argument].

    Results come back in the DAG's insertion order; only the trace
    metadata (timestamps, read from {!Clock}) reflects the run.  An
    obligation that was never run yields an explicit crash outcome, not
    an exception.

    With [?cache], each obligation is first looked up in the
    content-addressed proof cache and executed only on a miss; outcomes
    are batched ({!Cache.stash}) and written as one pack file per run
    ({!Cache.flush}, called before [run] returns).

    Cache misses execute under {!Supervisor.supervise} with [?sup]
    (default {!Supervisor.default}: one attempt, no deadline — the
    historical behaviour).  An obligation that raises is converted into
    a one-failure report rather than tearing down the pool, and
    quarantined outcomes are never cached; clean and fallback outcomes
    are.  Each [exec] carries the supervision {!Supervisor.trail}.

    When [sup.chaos] is armed, the worker additionally passes kill
    points before executing and before recording an obligation; a
    chaos kill abandons the obligation mid-flight.  It goes back on the
    queue (it runs again, and is recorded exactly once) and the worker
    restarts in place while the [?max_respawns] budget (default 32)
    lasts; past it the worker stays dead, and every obligation not yet
    run gets the crash outcome. *)

type cache_status = Hit | Miss | Off

val cache_status_to_string : cache_status -> string

type exec = {
  obligation : Obligation.t;
  outcome : Obligation.outcome;
  cache : cache_status;
  worker : int;  (** [0], or [-1] for an obligation that never ran *)
  started : float;  (** seconds since pool start *)
  finished : float;
  trail : Supervisor.trail;
      (** how execution went: attempts, faults injected, resolution
          ({!Supervisor.cached} for a hit) *)
}

type stats = {
  respawns : int;  (** chaos kills the worker restarted from *)
  lost_workers : int;  (** [1] when a kill came past the respawn budget *)
}

val run :
  ?cache:Cache.t -> ?sup:Supervisor.config -> ?max_respawns:int -> ?jobs:int ->
  Dag.t -> exec list

val run_with_stats :
  ?cache:Cache.t -> ?sup:Supervisor.config -> ?max_respawns:int -> ?jobs:int ->
  Dag.t -> exec list * stats

val wall_of : exec list -> float
(** Latest finish time = the pool's wall-clock. *)

val worker_stats : exec list -> (int * float * int) list
(** Per worker: (id, busy seconds, obligations run), sorted by id —
    the utilization numbers of the summary output. *)
