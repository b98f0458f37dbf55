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

type stats = unit

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

let run ?cache ?(sup = Supervisor.default) ?(jobs = 1) dag =
  if jobs <> 1 then invalid_arg "Pool.run: jobs must be 1";
  let obls = Dag.obligations dag in
  let t0 = Clock.now () in
  let ready = Queue.create () in
  let unmet = Hashtbl.create 64 in
  let results = Hashtbl.create 64 in
  List.iter
    (fun (o : Obligation.t) ->
      Hashtbl.replace unmet o.id (ref (List.length o.deps));
      if o.deps = [] then Queue.add o.id ready)
    obls;
  let run_one id =
    let o = Option.get (Dag.find dag id) in
    let started = Clock.now () -. t0 in
    let outcome, cache, trail = execute ~cache ~sup o in
    let finished = Clock.now () -. t0 in
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
  let rec loop () =
    match Queue.take_opt ready with
    | None -> None
    | Some id -> (
        match run_one id with
        | e ->
            publish id e;
            loop ()
        | exception exn when not (Cache.fatal exn) ->
            Some (Printf.sprintf "the run stopped at %s: %s" id (Printexc.to_string exn)))
  in
  (* The supervisor absorbs an obligation's own exceptions, so what
     reaches here was raised around it: by an [on_outcome] hook or the
     clock.  It ends the run, and each obligation left unpublished gets
     a crash outcome saying where the run stopped and why. *)
  let stopped = loop () in
  Option.iter Cache.flush cache;
  (* results in DAG insertion order *)
  let execs =
    List.map
      (fun (o : Obligation.t) ->
        match Hashtbl.find_opt results o.Obligation.id with
        | Some e -> e
        | None ->
            (* a validated DAG leaves obligations unpublished only when
               the run stopped *)
            let reason = Option.value stopped ~default:"not run" in
            {
              obligation = o;
              outcome = Supervisor.crash_outcome o reason;
              cache = Off;
              worker = -1;
              started = 0.0;
              finished = 0.0;
              trail = { Supervisor.attempt = None; resolution = Supervisor.Quarantined };
            })
      obls
  in
  execs

let run_with_stats ?cache ?sup ?jobs dag = (run ?cache ?sup ?jobs dag, ())

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
