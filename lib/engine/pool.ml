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

let crash_outcome (o : Obligation.t) reason =
  let reason = Printf.sprintf "obligation raised: %s" reason in
  Obligation.outcome
    [ Mirverif.Report.add_failure (Mirverif.Report.empty o.Obligation.id) ~case:"exception" ~reason ]

(* Quarantined outcomes describe this run's misfortune (a crash, a
   blown deadline), not the fingerprinted inputs, so [cacheable] is
   false and they are never stashed: a warm run would replay the
   failure forever.  Clean and fallback outcomes are stashed. *)
let execute ~cache ~sup (o : Obligation.t) =
  let ((outcome, _, _) as result) =
    match cache with
    | None ->
        let r = Supervisor.supervise sup o in
        (r.Supervisor.outcome, Off, r.Supervisor.trail)
    | Some c -> (
        match Cache.find c o with
        | Some outcome -> (outcome, Hit, Supervisor.cached)
        | None ->
            let r = Supervisor.supervise sup o in
            if r.Supervisor.cacheable then Cache.stash c o r.Supervisor.outcome;
            (r.Supervisor.outcome, Miss, r.Supervisor.trail))
  in
  (* every completion path — live, crashed, cached — feeds the hook
     before dependents are released, so gates driven by it (the
     override-composition proven set) see every dependency's outcome *)
  (match o.Obligation.on_outcome with None -> () | Some f -> f outcome);
  result

let run_with_stats ?cache ?(sup = Supervisor.default) ?(max_respawns = 32) ?(jobs = 1) dag =
  if jobs <> 1 then invalid_arg "Pool.run: jobs must be 1";
  let obls = Dag.obligations dag in
  let t0 = Clock.now () in
  let ready = Queue.create () in
  let unmet = Hashtbl.create 64 in
  let results = Hashtbl.create 64 in
  let lives = ref (max 0 max_respawns) and respawns = ref 0 and lost = ref 0 in
  Option.iter (fun c -> Option.iter (Cache.set_chaos c) sup.Supervisor.chaos) cache;
  List.iter
    (fun (o : Obligation.t) ->
      Hashtbl.replace unmet o.id (ref (List.length o.deps));
      if o.deps = [] then Queue.add o.id ready)
    obls;
  let kill_point site id =
    match sup.Supervisor.chaos with
    | Some ch when Engine_chaos.kill_worker ch ~site ~id ->
        raise (Engine_chaos.Worker_killed id)
    | _ -> ()
  in
  let run_one id =
    let o = Option.get (Dag.find dag id) in
    kill_point "pre-exec" id;
    let started = Clock.now () -. t0 in
    let outcome, cache, trail = execute ~cache ~sup o in
    let finished = Clock.now () -. t0 in
    (* the nastier kill: the result is computed but not yet recorded —
       the obligation runs again *)
    kill_point "post-exec" id;
    { obligation = o; outcome; cache; worker = 0; started; finished; trail }
  in
  (* Record the result and queue each dependent whose last dependency
     this was. *)
  let publish id e =
    Hashtbl.replace results id e;
    List.iter
      (fun d ->
        let n = Hashtbl.find unmet d in
        decr n;
        if !n = 0 then Queue.add d ready)
      (Dag.dependents_of dag id)
  in
  (* A chaos kill lost [id] before it was recorded: while the respawn
     budget lasts, the worker restarts in place and [id] goes to the
     back of the queue.  Past it the worker stays dead and the run
     stops. *)
  let rec loop () =
    match Queue.take_opt ready with
    | None -> ()
    | Some id -> (
        match run_one id with
        | e ->
            publish id e;
            loop ()
        | exception Engine_chaos.Worker_killed _ ->
            if !lives > 0 then begin
              decr lives;
              incr respawns;
              Queue.add id ready;
              loop ()
            end
            else incr lost)
  in
  (* a scheduler-level failure (not an obligation crash — the
     supervisor absorbs those) ends the run; what did not run gets the
     crash outcome below *)
  (try loop () with _ -> ());
  Option.iter Cache.flush cache;
  (* results in DAG insertion order.  An obligation that never ran
     becomes an explicit crash outcome rather than a bare [Not_found]. *)
  let execs =
    List.map
      (fun (o : Obligation.t) ->
        match Hashtbl.find_opt results o.Obligation.id with
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
  (execs, { respawns = !respawns; lost_workers = !lost })

let run ?cache ?sup ?max_respawns ?jobs dag =
  fst (run_with_stats ?cache ?sup ?max_respawns ?jobs dag)

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
