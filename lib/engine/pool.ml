type cache_status = Hit | Miss | Off

let cache_status_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Off -> "off"

type exec = {
  obligation : Obligation.t;
  outcome : Obligation.outcome;
  cache : cache_status;
  worker : int;
  started : float;
  finished : float;
  trail : Supervisor.trail;
}

type stats = { respawns : int; lost_workers : int }

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

(* One mutex guards every mutable field: the FIFO of ready ids, the
   unmet-dependency counts, the published results and the worker
   bookkeeping.  A worker holds it only to take an id and to publish a
   result; the obligation itself runs outside it. *)
type sched = {
  dag : Dag.t;
  cache : Cache.t option;
  sup : Supervisor.config;
  mu : Mutex.t;
  cond : Condition.t;
  ready : string Queue.t;
  indeg : (string, int ref) Hashtbl.t;  (* dependencies not yet published *)
  results : (string, exec) Hashtbl.t;
  total : int;
  mutable lives : int;  (* remaining respawn budget, shared by all workers *)
  mutable alive : int;
  mutable respawned : int;
  mutable lost : int;
  mutable stopped : bool;
  t0 : float;
}

let crash_outcome (o : Obligation.t) reason =
  let reason = Printf.sprintf "obligation raised: %s" reason in
  Obligation.outcome
    [ Mirverif.Report.add_failure (Mirverif.Report.empty o.Obligation.id) ~case:"exception" ~reason ]

(* Quarantined outcomes describe this run's misfortune (a crash, a
   blown deadline), not the fingerprinted inputs, so [cacheable] is
   false and they are never stashed: a warm run would replay the
   failure forever.  Clean and fallback outcomes are stashed. *)
let execute s (o : Obligation.t) =
  let ((outcome, _, _) as result) =
    match s.cache with
    | None ->
        let r = Supervisor.supervise s.sup o in
        (r.Supervisor.outcome, Off, r.Supervisor.trail)
    | Some c -> (
        match Cache.find c o with
        | Some outcome -> (outcome, Hit, Supervisor.cached)
        | None ->
            let r = Supervisor.supervise s.sup o in
            if r.Supervisor.cacheable then Cache.stash c o r.Supervisor.outcome;
            (r.Supervisor.outcome, Miss, r.Supervisor.trail))
  in
  (* every completion path — live, crashed, cached — feeds the hook
     before dependents are released, so gates driven by it (the
     override-composition proven set) are schedule-independent *)
  (match o.Obligation.on_outcome with None -> () | Some f -> f outcome);
  result

(* with [s.mu] held *)
let stop s =
  s.stopped <- true;
  Condition.broadcast s.cond

(* The next ready id, or [None] once the run is over.  A worker waits
   only on an empty queue; some other worker then holds an obligation
   whose publication releases more, or the run is over. *)
let take s =
  Mutex.protect s.mu (fun () ->
      let rec next () =
        if s.stopped then None
        else
          match Queue.take_opt s.ready with
          | Some id -> Some id
          | None ->
              Condition.wait s.cond s.mu;
              next ()
      in
      next ())

(* Record the result and release each dependent whose last dependency
   this was.  The publisher goes straight back to [take], so only the
   released ids past the first need another worker woken. *)
let publish s (e : exec) =
  let id = e.obligation.Obligation.id in
  Mutex.protect s.mu (fun () ->
      Hashtbl.replace s.results id e;
      let released = ref 0 in
      List.iter
        (fun d ->
          let unmet = Hashtbl.find s.indeg d in
          decr unmet;
          if !unmet = 0 then begin
            Queue.add d s.ready;
            if !released > 0 then Condition.signal s.cond;
            incr released
          end)
        (Dag.dependents_of s.dag id);
      if Hashtbl.length s.results = s.total then stop s)

(* A chaos kill lost [id] before it was published: put it back.  While
   the shared respawn budget lasts the worker restarts in place ([true];
   as good as a fresh domain, without paying for the spawn).  Past it
   the worker stays dead and the survivors drain the queue; when the
   last one dies the run stops. *)
let requeue s id =
  Mutex.protect s.mu (fun () ->
      Queue.add id s.ready;
      if s.lives > 0 then begin
        s.lives <- s.lives - 1;
        s.respawned <- s.respawned + 1;
        true
      end
      else begin
        s.lost <- s.lost + 1;
        s.alive <- s.alive - 1;
        if s.alive = 0 then s.stopped <- true;
        Condition.broadcast s.cond;
        false
      end)

(* Any scheduler-level failure (not an obligation crash — the
   supervisor absorbs those) stops the pool rather than stranding the
   other workers in [Condition.wait]. *)
let worker s wid =
  let kill_point site id =
    match s.sup.Supervisor.chaos with
    | Some ch when Engine_chaos.kill_worker ch ~site ~id ->
        raise (Engine_chaos.Worker_killed id)
    | _ -> ()
  in
  let run_one id =
    let o = Option.get (Dag.find s.dag id) in
    kill_point "pre-exec" id;
    let started = Clock.now () -. s.t0 in
    let outcome, cache, trail = execute s o in
    let finished = Clock.now () -. s.t0 in
    (* the nastier kill: the result is computed but not yet
       published — the obligation runs again *)
    kill_point "post-exec" id;
    { obligation = o; outcome; cache; worker = wid; started; finished; trail }
  in
  let rec loop () =
    match take s with
    | None -> ()
    | Some id -> (
        match run_one id with
        | e ->
            publish s e;
            loop ()
        | exception Engine_chaos.Worker_killed _ -> if requeue s id then loop ())
  in
  try loop () with _ -> Mutex.protect s.mu (fun () -> stop s)

let run_with_stats ?cache ?(oversubscribe = false) ?(sup = Supervisor.default)
    ?(max_respawns = 32) ~jobs dag =
  let obls = Dag.obligations dag in
  let total = List.length obls in
  if total = 0 then ([], { respawns = 0; lost_workers = 0 })
  else begin
    let jobs = max 1 (min jobs total) in
    (* more active domains than cores cannot help CPU-bound work — it
       only adds stop-the-world GC synchronization across time-sliced
       domains — so [jobs] caps concurrency and the hardware caps the
       domain count.  [oversubscribe] bypasses the clamp (tests). *)
    let jobs =
      if oversubscribe then jobs else min jobs (Domain.recommended_domain_count ())
    in
    let s =
      {
        dag;
        cache;
        sup;
        mu = Mutex.create ();
        cond = Condition.create ();
        ready = Queue.create ();
        indeg = Hashtbl.create total;
        results = Hashtbl.create total;
        total;
        lives = max 0 max_respawns;
        alive = jobs;
        respawned = 0;
        lost = 0;
        stopped = false;
        t0 = Clock.now ();
      }
    in
    Option.iter
      (fun c -> Option.iter (Cache.set_chaos c) sup.Supervisor.chaos)
      cache;
    List.iter
      (fun (o : Obligation.t) ->
        Hashtbl.replace s.indeg o.id (ref (List.length o.deps));
        if o.deps = [] then Queue.add o.id s.ready)
      obls;
    if jobs = 1 then
      (* inline fast path: no domain spawn *)
      worker s 0
    else
      Array.iter Domain.join
        (Array.init jobs (fun wid -> Domain.spawn (fun () -> worker s wid)));
    Option.iter Cache.flush cache;
    (* results in DAG insertion order: scheduling cannot influence what
       the caller sees.  An obligation no worker published becomes an
       explicit crash outcome rather than a bare [Not_found]. *)
    let execs =
      List.map
        (fun (o : Obligation.t) ->
          match Hashtbl.find_opt s.results o.Obligation.id with
          | Some e -> e
          | None ->
              {
                obligation = o;
                outcome = crash_outcome o "worker exited before publishing a result";
                cache = Off;
                worker = -1;
                started = 0.0;
                finished = 0.0;
                trail = { Supervisor.attempts = []; resolution = Supervisor.Quarantined };
              })
        obls
    in
    (execs, { respawns = s.respawned; lost_workers = s.lost })
  end

let run ?cache ?oversubscribe ?sup ?max_respawns ~jobs dag =
  fst (run_with_stats ?cache ?oversubscribe ?sup ?max_respawns ~jobs dag)

let wall_of execs =
  List.fold_left (fun acc e -> Float.max acc e.finished) 0.0 execs

let worker_stats execs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let busy, count =
        match Hashtbl.find_opt tbl e.worker with Some x -> x | None -> (0.0, 0)
      in
      Hashtbl.replace tbl e.worker (busy +. (e.finished -. e.started), count + 1))
    execs;
  Hashtbl.fold (fun w (busy, count) acc -> (w, busy, count) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
