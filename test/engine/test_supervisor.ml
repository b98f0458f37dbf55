(* Tests of supervised obligation execution: deterministic timeouts
   against a mocked clock (no real sleeps), retry/backoff determinism,
   the degradation ladder (reference-interpreter fallback, corrupt
   cache eviction, worker respawn), quarantine, cache write-failure
   surfacing, and the engine chaos harness — including the CI property
   that a chaos run's verdicts are byte-identical to a clean run's. *)

module Report = Mirverif.Report
module Obligation = Engine.Obligation
module Dag = Engine.Dag
module Pool = Engine.Pool
module Cache = Engine.Cache
module Supervisor = Engine.Supervisor
module Chaos = Engine.Engine_chaos
module Plan = Fault.Plan

let pass_obl ?(phase = "test") ?(deps = []) ?(fingerprint = "fp") ?fallback id =
  Obligation.v ~id ~phase ~deps ~fingerprint ?fallback (fun () ->
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mirverif-supervisor-test-%d-%d" (Unix.getpid ()) !n)

(* a config whose backoffs are recorded, never slept *)
let recording_cfg ?timeout ?(retries = 0) ?chaos ?(seed = 11) slept =
  {
    Supervisor.default with
    timeout;
    retries;
    seed;
    chaos;
    sleep = (fun d -> slept := d :: !slept);
  }

let statuses_of (trail : Supervisor.trail) =
  List.map
    (fun (a : Supervisor.attempt) -> Supervisor.status_to_string a.Supervisor.status)
    trail.Supervisor.attempts

let report_text (o : Obligation.outcome) =
  String.concat "\n" (List.map Report.to_string o.Obligation.reports)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Timeouts against a mocked clock — no real sleeps anywhere           *)

(* every Clock read jumps 10 s, so any poll after arming a 1 s deadline
   cancels the attempt *)
let with_fast_clock f =
  let t = ref 0.0 in
  Engine.Clock.with_source
    (fun () ->
      t := !t +. 10.0;
      !t)
    f

let test_timeout_then_quarantine () =
  let slept = ref [] in
  let cfg = recording_cfg ~timeout:1.0 ~retries:2 slept in
  let polls = ref 0 in
  let o =
    Obligation.v ~id:"slow" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr polls;
        Mirverif.Cancel.poll ();
        Obligation.outcome [ Report.add_pass (Report.empty "slow") ])
  in
  let r = with_fast_clock (fun () -> Supervisor.supervise cfg o) in
  Alcotest.(check (list string))
    "every attempt timed out" [ "timeout"; "timeout"; "timeout" ]
    (statuses_of r.Supervisor.trail);
  Alcotest.(check string) "quarantined" "quarantined"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution);
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable;
  Alcotest.(check int) "one synthesized failure" 1
    (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "reason names the quarantine" true
    (contains (report_text r.Supervisor.outcome)
       "obligation quarantined after 3 attempt(s)");
  Alcotest.(check int) "the obligation really ran three times" 3 !polls;
  (* the trace records the exact attempt sequence, including the
     deterministic backoff slept between attempts *)
  let expected =
    [
      Supervisor.backoff_delay cfg ~id:"slow" ~attempt:1;
      Supervisor.backoff_delay cfg ~id:"slow" ~attempt:2;
    ]
  in
  Alcotest.(check (list (float 0.0))) "backoffs as computed" expected (List.rev !slept);
  Alcotest.(check (list (float 0.0)))
    "trail carries the same backoffs" (expected @ [ 0.0 ])
    (List.map (fun (a : Supervisor.attempt) -> a.Supervisor.backoff)
       r.Supervisor.trail.Supervisor.attempts)

let test_timeout_then_recover () =
  let slept = ref [] in
  let cfg = recording_cfg ~timeout:1.0 ~retries:2 slept in
  let attempts = ref 0 in
  let o =
    Obligation.v ~id:"slow-once" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr attempts;
        if !attempts = 1 then Mirverif.Cancel.poll ();
        Obligation.outcome [ Report.add_pass (Report.empty "slow-once") ])
  in
  let r = with_fast_clock (fun () -> Supervisor.supervise cfg o) in
  Alcotest.(check (list string))
    "timeout then ok" [ "timeout"; "ok" ]
    (statuses_of r.Supervisor.trail);
  Alcotest.(check string) "recovered" "recovered"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution);
  Alcotest.(check bool) "cacheable" true r.Supervisor.cacheable;
  Alcotest.(check int) "clean outcome" 0 (Obligation.failure_count r.Supervisor.outcome)

(* the hook reads a per-domain deadline: with none armed, polling is a
   no-op even right after a supervised timeout ran on this domain *)
let test_poll_noop_without_deadline () =
  Mirverif.Cancel.poll ();
  Alcotest.(check pass) "poll outside supervision is a no-op" () ()

(* ------------------------------------------------------------------ *)
(* Retry / backoff determinism                                         *)

let test_retry_backoff_deterministic () =
  let run () =
    let slept = ref [] in
    let cfg = recording_cfg ~retries:3 slept in
    let attempts = ref 0 in
    let o =
      Obligation.v ~id:"flaky" ~phase:"test" ~fingerprint:"fp" (fun () ->
          incr attempts;
          if !attempts <= 2 then failwith "transient";
          Obligation.outcome [ Report.add_pass (Report.empty "flaky") ])
    in
    let r = Supervisor.supervise cfg o in
    (statuses_of r.Supervisor.trail,
     Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution,
     List.rev !slept)
  in
  let s1, res1, b1 = run () in
  let s2, res2, b2 = run () in
  Alcotest.(check (list string)) "crash, crash, ok" [ "crash"; "crash"; "ok" ] s1;
  Alcotest.(check string) "recovered" "recovered" res1;
  Alcotest.(check (list string)) "statuses replay" s1 s2;
  Alcotest.(check string) "resolution replays" res1 res2;
  Alcotest.(check (list (float 0.0))) "backoff sequence replays" b1 b2;
  (* nominal exponential shape: delay n is within [base*2^(n-1), 2*that] *)
  List.iteri
    (fun i d ->
      let nominal = 0.05 *. Float.pow 2.0 (float_of_int i) in
      if d < nominal || d > 2.0 *. nominal then
        Alcotest.failf "backoff %d out of band: %f" (i + 1) d)
    b1

let test_backoff_streams_differ_per_obligation () =
  let cfg = recording_cfg (ref []) in
  Alcotest.(check bool) "per-id jitter streams diverge" true
    (Supervisor.backoff_delay cfg ~id:"a" ~attempt:1
    <> Supervisor.backoff_delay cfg ~id:"b" ~attempt:1)

(* with the default config a crash reports exactly as the historical
   unsupervised pool did *)
let test_default_config_legacy_crash_shape () =
  let o =
    Obligation.v ~id:"boom" ~phase:"test" ~fingerprint:"fp" (fun () ->
        failwith "deliberate")
  in
  let r = Supervisor.supervise Supervisor.default o in
  Alcotest.(check int) "one failure" 1 (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "legacy reason text" true
    (contains (report_text r.Supervisor.outcome) "obligation raised: Failure(\"deliberate\")");
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable

(* ------------------------------------------------------------------ *)
(* Degradation ladder: reference-interpreter fallback                  *)

let test_fallback_discharges_crash () =
  let fellback = ref 0 in
  let o =
    Obligation.v ~id:"compiled-crash" ~phase:"test" ~fingerprint:"fp"
      ~fallback:(fun () ->
        incr fellback;
        Obligation.outcome [ Report.add_pass (Report.empty "compiled-crash") ])
      (fun () -> failwith "segv in compiled closure")
  in
  let r = Supervisor.supervise { Supervisor.default with retries = 1 } o in
  Alcotest.(check string) "fell back" "fell-back"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution);
  Alcotest.(check int) "fallback ran once" 1 !fellback;
  Alcotest.(check int) "fallback outcome stands in" 0
    (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "fallback outcome is cacheable" true r.Supervisor.cacheable;
  Alcotest.(check (list string)) "after both attempts crashed"
    [ "crash"; "crash" ] (statuses_of r.Supervisor.trail)

let test_fallback_crash_still_quarantines () =
  let o =
    Obligation.v ~id:"double-crash" ~phase:"test" ~fingerprint:"fp"
      ~fallback:(fun () -> failwith "interp crashed too")
      (fun () -> failwith "compiled crashed")
  in
  let r = Supervisor.supervise Supervisor.default o in
  Alcotest.(check string) "quarantined" "quarantined"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution);
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable

(* through the pool and the cache: a fallback outcome is stashed, a
   quarantined one is not *)
let test_pool_caches_fallback_not_quarantine () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let ladder =
    Obligation.v ~id:"ladder" ~phase:"test" ~fingerprint:"fp-l"
      ~fallback:(fun () ->
        Obligation.outcome [ Report.add_pass (Report.empty "ladder") ])
      (fun () -> failwith "always")
  in
  let hopeless =
    Obligation.v ~id:"hopeless" ~phase:"test" ~fingerprint:"fp-h" (fun () ->
        failwith "always")
  in
  let execs = Pool.run ~cache (Dag.build_exn [ ladder; hopeless ]) in
  Alcotest.(check int) "only the fallback outcome is cached" 1 (Cache.entry_count cache);
  (match execs with
  | [ l; h ] ->
      Alcotest.(check string) "ladder fell back" "fell-back"
        (Supervisor.resolution_to_string l.Pool.trail.Supervisor.resolution);
      Alcotest.(check string) "hopeless quarantined" "quarantined"
        (Supervisor.resolution_to_string h.Pool.trail.Supervisor.resolution)
  | _ -> Alcotest.fail "expected two execs");
  let warm = Pool.run ~cache (Dag.build_exn [ ladder; hopeless ]) in
  Alcotest.(check (list string)) "warm: ladder hits, hopeless re-runs"
    [ "hit"; "miss" ]
    (List.map (fun (e : Pool.exec) -> Pool.cache_status_to_string e.Pool.cache) warm)

(* the real plan wires the interpreter fallback onto every code-proof
   obligation and nothing else *)
let test_plan_code_proofs_have_fallback () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let plan = Engine.Plan.build ~quick:true ~seed:2024 layout in
  List.iter
    (fun (o : Obligation.t) ->
      let has = o.Obligation.fallback <> None in
      let expect = o.Obligation.phase = "code-proofs" in
      if has <> expect then
        Alcotest.failf "%s: fallback %b, expected %b" o.Obligation.id has expect)
    (Dag.obligations plan.Engine.Plan.dag)

(* ------------------------------------------------------------------ *)
(* Chaos decisions                                                     *)

(* find an obligation id the harness marks with the wanted fault; the
   search itself is deterministic *)
let find_id pred =
  let rec go i =
    if i > 10_000 then Alcotest.fail "no id draws the wanted fault"
    else
      let id = Printf.sprintf "obl-%04d" i in
      if pred id then id else go (i + 1)
  in
  go 0

let test_chaos_decisions_deterministic () =
  let ch = Chaos.create ~seed:5 () in
  let ch' = Chaos.create ~seed:5 () in
  for i = 0 to 199 do
    let id = Printf.sprintf "obl-%04d" i in
    if Chaos.obl_fault ch ~id <> Chaos.obl_fault ch' ~id then
      Alcotest.failf "fault for %s differs between identical harnesses" id
  done;
  let faulted ch =
    List.filter
      (fun i -> Chaos.obl_fault ch ~id:(Printf.sprintf "obl-%04d" i) <> Chaos.No_fault)
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "some obligations drawn" true (List.length (faulted ch) > 0);
  Alcotest.(check bool) "but not all" true (List.length (faulted ch) < 200)

let test_chaos_crash_recovers_with_clean_verdict () =
  let ch = Chaos.create ~kinds:[ Plan.Obl_crash ] ~seed:5 () in
  let id =
    find_id (fun id ->
        match Chaos.obl_fault ch ~id with Chaos.Crash _ -> true | _ -> false)
  in
  let ran = ref 0 in
  let o =
    Obligation.v ~id ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr ran;
        Obligation.outcome [ Report.add_pass (Report.empty id) ])
  in
  let cfg = recording_cfg ~retries:2 ~chaos:(Chaos.create ~kinds:[ Plan.Obl_crash ] ~seed:5 ()) (ref []) in
  let r = Supervisor.supervise cfg o in
  Alcotest.(check string) "recovered" "recovered"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution);
  Alcotest.(check int) "verdict is the clean one" 0
    (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "injected attempts are marked" true
    (List.exists
       (fun (a : Supervisor.attempt) -> a.Supervisor.injected = Some Plan.Obl_crash)
       r.Supervisor.trail.Supervisor.attempts)

(* a drawn hang degrades to a crash when no deadline is configured:
   the supervision loop must terminate *)
let test_chaos_hang_without_timeout_degrades () =
  let probe = Chaos.create ~kinds:[ Plan.Obl_hang ] ~seed:5 () in
  let id =
    find_id (fun id ->
        match Chaos.obl_fault probe ~id with Chaos.Hang _ -> true | _ -> false)
  in
  let o = pass_obl ~fingerprint:"fp" id in
  let cfg =
    recording_cfg ~retries:2 ~chaos:(Chaos.create ~kinds:[ Plan.Obl_hang ] ~seed:5 ()) (ref [])
  in
  let r = Supervisor.supervise cfg o in
  Alcotest.(check string) "terminates and recovers" "recovered"
    (Supervisor.resolution_to_string r.Supervisor.trail.Supervisor.resolution)

(* with no retry budget the supervisor clamps persistence to zero:
   chaos may not inject anything it cannot absorb *)
let test_chaos_clamped_by_retry_budget () =
  let ch = Chaos.create ~kinds:[ Plan.Obl_crash ] ~seed:5 () in
  let id =
    find_id (fun id ->
        match Chaos.obl_fault ch ~id with Chaos.Crash _ -> true | _ -> false)
  in
  let o = pass_obl ~fingerprint:"fp" id in
  let cfg =
    recording_cfg ~retries:0 ~chaos:(Chaos.create ~kinds:[ Plan.Obl_crash ] ~seed:5 ()) (ref [])
  in
  let r = Supervisor.supervise cfg o in
  Alcotest.(check (list string)) "single clean attempt" [ "ok" ]
    (statuses_of r.Supervisor.trail)

(* ------------------------------------------------------------------ *)
(* Chaos through the pool: verdicts identical to a clean run           *)

let render execs =
  String.concat "\n"
    (List.concat_map
       (fun (e : Pool.exec) ->
         e.obligation.Obligation.id
         :: List.map Report.to_string e.outcome.Obligation.reports)
       execs)

let decisions execs =
  List.map
    (fun (e : Pool.exec) ->
      ( e.obligation.Obligation.id,
        Supervisor.resolution_to_string e.trail.Supervisor.resolution,
        statuses_of e.trail,
        List.map (fun (a : Supervisor.attempt) -> a.Supervisor.backoff)
          e.trail.Supervisor.attempts ))
    execs

let chain n =
  (* a few dependency chains plus independent roots, so taking,
     release and completion all happen under fire *)
  List.init n (fun i ->
      let id = Printf.sprintf "c-%03d" i in
      let deps = if i mod 4 = 0 || i = 0 then [] else [ Printf.sprintf "c-%03d" (i - 1) ] in
      pass_obl ~deps ~fingerprint:"fp" id)

let chaos_cfg seed =
  {
    Supervisor.default with
    timeout = Some 0.05;
    retries = 2;
    seed = 3;
    sleep = (fun _ -> ());
    chaos = Some (Chaos.create ~seed ());
  }

let test_chaos_pool_verdicts_clean_and_deterministic () =
  let dag () = Dag.build_exn (chain 48) in
  let clean = Pool.run (dag ()) in
  let c1 = Pool.run ~sup:(chaos_cfg 9) (dag ()) in
  let c2 = Pool.run ~sup:(chaos_cfg 9) (dag ()) in
  Alcotest.(check string) "chaos verdicts = clean verdicts" (render clean) (render c1);
  Alcotest.(check bool) "supervision decisions replay from the seed" true
    (decisions c1 = decisions c2);
  Alcotest.(check bool) "chaos actually injected" true
    (List.exists (fun (_, res, _, _) -> res <> "completed") (decisions c1))

(* the property behind --engine-chaos on composed code proofs: the
   real composed code-proof DAG, run under fault injection, must render
   the byte-identical verdicts of each function's clean monolithic
   battery.  A chaos-crashed callee is absorbed by the supervisor
   (retry / interpreter fallback) or leaves the caller's proven gate
   closed — body fallback — so no injection can ever turn a verdict
   vacuous or divergent. *)
let test_chaos_composed_verdicts_match_monolithic () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let composed () =
    Dag.build_exn
      (List.concat_map snd (Engine.Plan.code_proof_obligations ~seed:2024 layout))
  in
  let mono =
    let ctx = Check.Code_proof.ctx ~seed:2024 layout in
    String.concat "\n"
      (List.concat_map
         (fun (o : Obligation.t) ->
           let fn = List.nth (String.split_on_char '/' o.Obligation.id) 2 in
           match Check.Code_proof.run_function ctx fn with
           | Some (_, r) -> [ o.Obligation.id; Report.to_string r ]
           | None -> Alcotest.failf "%s owns no spec" fn)
         (Dag.obligations (composed ())))
  in
  let cfg seed =
    {
      Supervisor.default with
      retries = 2;
      sleep = (fun _ -> ());
      chaos =
        Some (Chaos.create ~kinds:[ Plan.Obl_crash; Plan.Worker_kill ] ~seed ());
    }
  in
  let chaotic1 = Pool.run ~sup:(cfg 7) (composed ()) in
  Alcotest.(check string) "chaos composed verdicts = clean monolithic"
    mono (render chaotic1);
  Alcotest.(check bool) "chaos actually injected" true
    (List.exists
       (fun (e : Pool.exec) ->
         Supervisor.resolution_to_string e.trail.Supervisor.resolution
         <> "completed")
       chaotic1)

(* ------------------------------------------------------------------ *)
(* Worker kills: respawn, exactly-once, and the synthesized-crash path *)

(* a chaos seed under which the harness kills the first executor of
   [id] at [site] *)
let kill_seed ~site ~id =
  let rec go seed =
    if seed > 10_000 then Alcotest.fail "no seed kills this obligation"
    else if Chaos.kill_worker (Chaos.create ~kinds:[ Plan.Worker_kill ] ~seed ()) ~site ~id
    then seed
    else go (seed + 1)
  in
  go 0

let kill_cfg seed =
  {
    Supervisor.default with
    sleep = (fun _ -> ());
    chaos = Some (Chaos.create ~kinds:[ Plan.Worker_kill ] ~seed ());
  }

let test_worker_respawn_completes_everything () =
  let seed = kill_seed ~site:"pre-exec" ~id:"victim" in
  let dag =
    Dag.build_exn [ pass_obl ~fingerprint:"fp" "victim"; pass_obl ~deps:[ "victim" ] "after" ]
  in
  let execs, stats = Pool.run_with_stats ~sup:(kill_cfg seed) dag in
  Alcotest.(check int) "both obligations complete" 2 (List.length execs);
  Alcotest.(check bool) "no failures" true
    (List.for_all (fun (e : Pool.exec) -> Obligation.failure_count e.Pool.outcome = 0) execs);
  Alcotest.(check bool) "the worker was respawned" true (stats.Pool.respawns >= 1);
  Alcotest.(check int) "no worker permanently lost" 0 stats.Pool.lost_workers

(* the nastier kill: result computed but unpublished — the respawned
   worker redoes the obligation, and the publish flag keeps dependent
   release and completion exactly-once *)
let test_worker_kill_after_compute_exactly_once () =
  let seed = kill_seed ~site:"post-exec" ~id:"victim" in
  let ran = ref 0 in
  let victim =
    Obligation.v ~id:"victim" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr ran;
        Obligation.outcome [ Report.add_pass (Report.empty "victim") ])
  in
  let dag = Dag.build_exn [ victim; pass_obl ~deps:[ "victim" ] "after" ] in
  let execs, stats = Pool.run_with_stats ~sup:(kill_cfg seed) dag in
  Alcotest.(check int) "one exec per obligation" 2 (List.length execs);
  Alcotest.(check bool) "no failures" true
    (List.for_all (fun (e : Pool.exec) -> Obligation.failure_count e.Pool.outcome = 0) execs);
  Alcotest.(check int) "the victim ran twice (result was lost once)" 2 !ran;
  Alcotest.(check bool) "respawned" true (stats.Pool.respawns >= 1)

(* respawn budget exhausted: the pool still returns, synthesizing the
   explicit crash outcome for whatever was never published
   (the merge path also hit when a worker dies for real) *)
let test_dead_worker_synthesizes_crash_outcome () =
  let seed = kill_seed ~site:"pre-exec" ~id:"victim" in
  let dag = Dag.build_exn [ pass_obl ~fingerprint:"fp" "victim" ] in
  let execs, stats =
    Pool.run_with_stats ~sup:(kill_cfg seed) ~max_respawns:0 dag
  in
  Alcotest.(check int) "worker permanently lost" 1 stats.Pool.lost_workers;
  match execs with
  | [ e ] ->
      Alcotest.(check int) "synthesized crash outcome" 1
        (Obligation.failure_count e.Pool.outcome);
      Alcotest.(check bool) "explicit reason" true
        (contains (report_text e.Pool.outcome) "worker exited before publishing a result");
      Alcotest.(check int) "no worker claims it" (-1) e.Pool.worker;
      Alcotest.(check string) "trail says quarantined" "quarantined"
        (Supervisor.resolution_to_string e.Pool.trail.Supervisor.resolution)
  | _ -> Alcotest.fail "expected exactly one exec"

(* ------------------------------------------------------------------ *)
(* Cache corruption fixtures and write-failure surfacing               *)

let counted counter ~fingerprint id =
  Obligation.v ~id ~phase:"test" ~deps:[] ~fingerprint (fun () ->
      incr counter;
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

let test_torn_pack_evicted_and_recomputed () =
  let dir = fresh_dir () in
  let counter = ref 0 in
  let dag () =
    Dag.build_exn
      [ counted counter ~fingerprint:"t1" "a"; counted counter ~fingerprint:"t2" "b" ]
  in
  (* clean baseline for verdict comparison *)
  let clean = Pool.run (dag ()) in
  (* cold run whose pack write is torn by chaos *)
  let cache = Cache.create ~dir in
  let sup =
    { Supervisor.default with chaos = Some (Chaos.create ~kinds:[ Plan.Torn_pack ] ~seed:1 ()) }
  in
  ignore (Pool.run ~cache ~sup (dag ()));
  (* counter also saw the 2 baseline executions *)
  Alcotest.(check int) "both executed cold" 4 !counter;
  (* next process: the torn pack must load as nothing and be evicted *)
  let reloaded = Cache.create ~dir in
  Alcotest.(check int) "torn pack evicted wholesale" 0 (Cache.entry_count reloaded);
  Alcotest.(check bool) "no pack file survives" true
    (Array.for_all (fun f -> not (Filename.check_suffix f ".pack")) (Sys.readdir dir));
  let redo = Pool.run ~cache:reloaded (dag ()) in
  Alcotest.(check int) "recomputed cold" 6 !counter;
  Alcotest.(check string) "verdicts match the clean-cache run" (render clean) (render redo)

let test_cache_write_failures_surfaced () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir in
  let o = pass_obl ~fingerprint:"fp-wf" "w" in
  Cache.stash cache o (o.Obligation.run ());
  (* pull the directory out from under the flush: the write must fail,
     the failure must be counted and reported, and nothing may raise *)
  Unix.rmdir dir;
  Cache.flush cache;
  Alcotest.(check int) "flush failure counted" 1 (Cache.write_failure_count cache);
  Cache.stash cache (pass_obl ~fingerprint:"fp-wf2" "w2") (o.Obligation.run ());
  Cache.flush cache;
  Alcotest.(check int) "second flush failure counted too" 2 (Cache.write_failure_count cache);
  (match Cache.write_failures cache with
  | [ ("flush", m1); ("flush", m2) ] ->
      Alcotest.(check bool) "messages carried" true
        (String.length m1 > 0 && String.length m2 > 0)
  | fs -> Alcotest.failf "unexpected failure records (%d)" (List.length fs));
  (* a healthy cache records nothing *)
  let ok = Cache.create ~dir:(fresh_dir ()) in
  Cache.stash ok o (o.Obligation.run ());
  Cache.flush ok;
  Alcotest.(check int) "healthy cache: zero failures" 0 (Cache.write_failure_count ok)

(* ------------------------------------------------------------------ *)
(* Clock skew and fault vocabulary                                     *)

let test_skewed_clock_bounded_and_monotone () =
  let ch = Chaos.create ~kinds:[ Plan.Clock_skew ] ~seed:7 () in
  let src = Chaos.skewed_source ch in
  let prev = ref neg_infinity in
  for _ = 1 to 2000 do
    let t = src () in
    if t < !prev then Alcotest.fail "skewed clock ran backwards";
    prev := t;
    let skew = t -. Engine.Clock.real () in
    if skew > 0.21 then Alcotest.failf "skew out of bounds: %f" skew
  done;
  Alcotest.(check bool) "skew was injected" true
    (List.assoc Plan.Clock_skew (Chaos.injected ch) > 0)

let test_engine_kind_parsing () =
  let parse =
    Plan.kinds_of_string ~what:"engine fault kind" ~all:Plan.all_engine_kinds
      ~to_string:Plan.engine_kind_to_string
  in
  Alcotest.(check bool) "'all' expands" true (parse "all" = Ok Plan.all_engine_kinds);
  Alcotest.(check bool) "list parses in order" true
    (parse "obl-crash, torn-pack" = Ok [ Plan.Obl_crash; Plan.Torn_pack ]);
  (match parse "obl-crash,bogus" with
  | Error msg ->
      Alcotest.(check bool) "error names the kinds" true (contains msg "obl-crash");
      Alcotest.(check bool) "error names the unknown kind" true (contains msg "\"bogus\"")
  | Ok _ -> Alcotest.fail "bogus kind accepted");
  (match parse " , " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty kind list accepted");
  List.iter
    (fun k ->
      match parse (Plan.engine_kind_to_string k) with
      | Ok [ k' ] when k' = k -> ()
      | _ -> Alcotest.failf "kind %s does not round-trip" (Plan.engine_kind_to_string k))
    Plan.all_engine_kinds

let () =
  Alcotest.run "supervisor"
    [
      ( "timeouts",
        [
          Alcotest.test_case "timeout, retries, quarantine" `Quick
            test_timeout_then_quarantine;
          Alcotest.test_case "timeout then recover" `Quick test_timeout_then_recover;
          Alcotest.test_case "poll without deadline" `Quick test_poll_noop_without_deadline;
        ] );
      ( "retries",
        [
          Alcotest.test_case "deterministic backoff" `Quick
            test_retry_backoff_deterministic;
          Alcotest.test_case "per-obligation jitter streams" `Quick
            test_backoff_streams_differ_per_obligation;
          Alcotest.test_case "legacy crash shape" `Quick
            test_default_config_legacy_crash_shape;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "interp fallback discharges" `Quick
            test_fallback_discharges_crash;
          Alcotest.test_case "fallback crash quarantines" `Quick
            test_fallback_crash_still_quarantines;
          Alcotest.test_case "cacheable fallback, uncacheable quarantine" `Quick
            test_pool_caches_fallback_not_quarantine;
          Alcotest.test_case "plan wires code-proof fallbacks" `Quick
            test_plan_code_proofs_have_fallback;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "decisions deterministic" `Quick
            test_chaos_decisions_deterministic;
          Alcotest.test_case "crash recovers cleanly" `Quick
            test_chaos_crash_recovers_with_clean_verdict;
          Alcotest.test_case "hang degrades without timeout" `Quick
            test_chaos_hang_without_timeout_degrades;
          Alcotest.test_case "clamped by retry budget" `Quick
            test_chaos_clamped_by_retry_budget;
          Alcotest.test_case "pool verdicts clean + schedule-independent" `Quick
            test_chaos_pool_verdicts_clean_and_deterministic;
          Alcotest.test_case "composed verdicts survive chaos" `Quick
            test_chaos_composed_verdicts_match_monolithic;
        ] );
      ( "workers",
        [
          Alcotest.test_case "respawn completes everything" `Quick
            test_worker_respawn_completes_everything;
          Alcotest.test_case "post-compute kill exactly-once" `Quick
            test_worker_kill_after_compute_exactly_once;
          Alcotest.test_case "dead worker synthesized crash" `Quick
            test_dead_worker_synthesizes_crash_outcome;
        ] );
      ( "cache",
        [
          Alcotest.test_case "torn pack evicted + recomputed" `Quick
            test_torn_pack_evicted_and_recomputed;
          Alcotest.test_case "write failures surfaced" `Quick
            test_cache_write_failures_surfaced;
        ] );
      ( "clock-and-kinds",
        [
          Alcotest.test_case "skewed clock bounded, monotone" `Quick
            test_skewed_clock_bounded_and_monotone;
          Alcotest.test_case "engine kind parsing" `Quick test_engine_kind_parsing;
        ] );
    ]
