(** The obligation scheduler: runs a DAG on the calling domain.

    [run dag] executes every obligation, respecting dependency edges.
    A FIFO queue holds the ready obligation ids and a count of unmet
    dependencies per obligation tracks the rest: the pool takes the
    next id, runs it (cache lookup, supervision, then the obligation's
    [on_outcome] hook), records the result and queues each dependent
    whose last dependency this was.  A process verifies one request at
    a time; the daemon's one forked worker is there for isolation and
    resident memos, not for parallelism.

    [?jobs] is accepted only as [1], the value the end-to-end benchmark
    still passes; any other value raises [Invalid_argument].

    Results come back in the DAG's insertion order; only the trace
    metadata (timestamps, read from {!Clock}) reflects the run.

    With [?cache], each obligation is first looked up in the
    content-addressed proof cache and executed only on a miss; outcomes
    are batched ({!Cache.stash}) and written as one pack file per run
    ({!Cache.flush}, called before [run] returns).

    Cache misses execute under {!Supervisor.supervise} with [?sup]
    (default {!Supervisor.default}: no deadline).  An obligation that
    raises is turned into a one-failure report rather than tearing
    down the pool, and quarantined outcomes are never cached; clean and
    fallback outcomes are.  Each [exec] carries the supervision
    {!Supervisor.trail}.

    An exception raised around an obligation (by its [on_outcome] hook,
    or by the clock) stops the run.  The cache is still flushed, and
    each obligation not yet recorded gets a crash outcome whose reason
    names the obligation the run stopped at and the exception's text.
    [Out_of_memory] and [Stack_overflow] are not absorbed: they
    propagate out of [run]. *)

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
      (** how execution went ({!Supervisor.cached} for a hit) *)
}

type stats = unit
(** Inert: the pool keeps no run statistics.  [run_with_stats] and
    this type stay only because [bench/e2e] still calls them (ROADMAP
    item 3). *)

val run : ?cache:Cache.t -> ?sup:Supervisor.config -> ?jobs:int -> Dag.t -> exec list

val run_with_stats :
  ?cache:Cache.t -> ?sup:Supervisor.config -> ?jobs:int -> Dag.t -> exec list * stats
(** [run], paired with the inert {!stats}. *)

val wall_of : exec list -> float
(** Latest finish time = the pool's wall-clock. *)

val worker_stats : exec list -> (int * float * int) list
(** Per worker: (id, busy seconds, obligations run), sorted by id —
    the utilization numbers of the summary output. *)
