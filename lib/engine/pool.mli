(** OCaml 5 [Domain] worker pool over an obligation DAG, with one
    shared ready queue.

    [run ~jobs dag] executes every obligation, respecting dependency
    edges, on up to [jobs] domains.  One mutex guards a FIFO queue of
    ready obligation ids: a worker takes an id under the lock, runs the
    obligation outside it (cache lookup, supervision, then the
    obligation's [on_outcome] hook), and publishes under the lock,
    releasing each dependent whose last dependency this was.  Idle
    workers wait on one condition variable; a publisher signals once
    per released id beyond the one it takes itself, and the pool
    broadcasts only when the run ends, a worker dies for good, or a
    scheduler failure stops it.

    [jobs] caps concurrency; the pool additionally never spawns more
    domains than [Domain.recommended_domain_count ()], because active
    domains beyond the hardware only add stop-the-world GC
    synchronization to CPU-bound work.  [jobs = 1] (or a one-core
    clamp) runs inline on the calling domain with no spawn at all.
    [~oversubscribe:true] bypasses the clamp (tests use it to exercise
    the multi-domain path on any machine).

    Results come back in the DAG's insertion order, so the merged
    output is byte-identical at any job count; only the trace metadata
    (worker ids, timestamps — all read from {!Clock}) reflects the
    actual schedule.  An obligation no worker published yields an
    explicit crash outcome, not an exception.

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

    When [sup.chaos] is armed, workers additionally pass kill points
    before executing and before publishing an obligation; a chaos kill
    tears the worker down mid-flight.  The obligation it held goes back
    on the queue (it runs again, and is published exactly once) and the
    worker respawns while the shared [?max_respawns] budget (default
    32) lasts; past it the worker stays dead and the survivors drain
    the queue. *)

type cache_status = Hit | Miss | Off

val cache_status_to_string : cache_status -> string

type exec = {
  obligation : Obligation.t;
  outcome : Obligation.outcome;
  cache : cache_status;
  worker : int;  (** worker that ran (or replayed) it *)
  started : float;  (** seconds since pool start *)
  finished : float;
  trail : Supervisor.trail;
      (** how execution went: attempts, faults injected, resolution
          ({!Supervisor.cached} for a hit) *)
}

type stats = {
  respawns : int;  (** workers killed by chaos and restarted *)
  lost_workers : int;  (** workers dead past the respawn budget *)
}

val run :
  ?cache:Cache.t -> ?oversubscribe:bool -> ?sup:Supervisor.config ->
  ?max_respawns:int -> jobs:int -> Dag.t -> exec list

val run_with_stats :
  ?cache:Cache.t -> ?oversubscribe:bool -> ?sup:Supervisor.config ->
  ?max_respawns:int -> jobs:int -> Dag.t -> exec list * stats

val wall_of : exec list -> float
(** Latest finish time = the pool's wall-clock. *)

val worker_stats : exec list -> (int * float * int) list
(** Per worker: (id, busy seconds, obligations run), sorted by id —
    the utilization numbers of the summary output. *)
