(* Tests of supervised obligation execution: one attempt under a
   deadline against a mocked clock (no real sleeps), the crash report,
   the degradation ladder (reference-interpreter fallback, corrupt
   cache eviction), quarantine and what is never cached, cache
   write-failure surfacing, and the property that composed code-proof
   verdicts survive crashes injected into the obligations. *)

module Report = Mirverif.Report
module Obligation = Engine.Obligation
module Dag = Engine.Dag
module Pool = Engine.Pool
module Cache = Engine.Cache
module Supervisor = Engine.Supervisor

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

let status_of (trail : Supervisor.trail) =
  match trail.Supervisor.attempt with
  | None -> "none"
  | Some s -> Supervisor.status_to_string s

let resolution_of (trail : Supervisor.trail) =
  Supervisor.resolution_to_string trail.Supervisor.resolution

let report_text (o : Obligation.outcome) =
  String.concat "\n" (List.map Report.to_string o.Obligation.reports)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Timeouts against a mocked clock — no real sleeps anywhere           *)

(* every Clock read jumps 10 s, so any poll after arming a 1 s deadline
   cancels the obligation *)
let with_fast_clock f =
  let t = ref 0.0 in
  Engine.Clock.with_source
    (fun () ->
      t := !t +. 10.0;
      !t)
    f

(* [retries] is inert: a timed-out obligation runs once, is
   quarantined under a text of its own, and is never cached *)
let test_timeout_then_quarantine () =
  let cfg = { Supervisor.default with timeout = Some 1.0; retries = 2 } in
  let polls = ref 0 in
  let o =
    Obligation.v ~id:"slow" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr polls;
        Mirverif.Cancel.poll ();
        Obligation.outcome [ Report.add_pass (Report.empty "slow") ])
  in
  let r = with_fast_clock (fun () -> Supervisor.supervise cfg o) in
  Alcotest.(check string) "the attempt timed out" "timeout" (status_of r.Supervisor.trail);
  Alcotest.(check string) "quarantined" "quarantined" (resolution_of r.Supervisor.trail);
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable;
  Alcotest.(check int) "one synthesized failure" 1
    (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "reason names the deadline" true
    (contains (report_text r.Supervisor.outcome)
       "FAIL [timeout]: obligation exceeded its 1s deadline");
  Alcotest.(check int) "the obligation ran once" 1 !polls;
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let execs = with_fast_clock (fun () -> Pool.run ~cache ~sup:cfg (Dag.build_exn [ o ])) in
  Alcotest.(check (list string)) "quarantined through the pool" [ "quarantined" ]
    (List.map (fun (e : Pool.exec) -> resolution_of e.Pool.trail) execs);
  Alcotest.(check int) "a timeout is never cached" 0 (Cache.entry_count cache)

(* a timeout is this run's misfortune: the next run recomputes, and
   only its clean outcome is cached *)
let test_timeout_then_recover () =
  let cfg = { Supervisor.default with timeout = Some 1.0 } in
  let runs = ref 0 in
  let o =
    Obligation.v ~id:"slow-once" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr runs;
        if !runs = 1 then Mirverif.Cancel.poll ();
        Obligation.outcome [ Report.add_pass (Report.empty "slow-once") ])
  in
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let run () =
    match with_fast_clock (fun () -> Pool.run ~cache ~sup:cfg (Dag.build_exn [ o ])) with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected one exec"
  in
  let first = run () in
  Alcotest.(check string) "first run times out" "timeout" (status_of first.Pool.trail);
  Alcotest.(check int) "nothing cached" 0 (Cache.entry_count cache);
  let second = run () in
  Alcotest.(check string) "second run re-executes" "miss"
    (Pool.cache_status_to_string second.Pool.cache);
  Alcotest.(check string) "and completes" "completed" (resolution_of second.Pool.trail);
  Alcotest.(check int) "clean outcome" 0 (Obligation.failure_count second.Pool.outcome);
  Alcotest.(check int) "clean outcome cached" 1 (Cache.entry_count cache);
  let third = run () in
  Alcotest.(check string) "third run hits" "hit" (Pool.cache_status_to_string third.Pool.cache);
  Alcotest.(check int) "ran twice in all" 2 !runs

(* the hook reads a per-domain deadline: with none armed, polling is a
   no-op even right after a supervised timeout ran on this domain *)
let test_poll_noop_without_deadline () =
  Mirverif.Cancel.poll ();
  Alcotest.(check pass) "poll outside supervision is a no-op" () ()

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)

(* a crash reports as the historical unsupervised pool did, after one
   attempt: [retries] is inert *)
let test_default_config_legacy_crash_shape () =
  let runs = ref 0 in
  let o =
    Obligation.v ~id:"boom" ~phase:"test" ~fingerprint:"fp" (fun () ->
        incr runs;
        failwith "deliberate")
  in
  let r = Supervisor.supervise { Supervisor.default with retries = 2 } o in
  Alcotest.(check int) "one failure" 1 (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "legacy case and reason text" true
    (contains (report_text r.Supervisor.outcome)
       "FAIL [exception]: obligation raised: Failure(\"deliberate\")");
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable;
  Alcotest.(check string) "crashed" "crash" (status_of r.Supervisor.trail);
  Alcotest.(check string) "quarantined" "quarantined" (resolution_of r.Supervisor.trail);
  Alcotest.(check int) "ran once" 1 !runs

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
  let r = Supervisor.supervise Supervisor.default o in
  Alcotest.(check string) "fell back" "fell-back" (resolution_of r.Supervisor.trail);
  Alcotest.(check int) "fallback ran once" 1 !fellback;
  Alcotest.(check int) "fallback outcome stands in" 0
    (Obligation.failure_count r.Supervisor.outcome);
  Alcotest.(check bool) "fallback outcome is cacheable" true r.Supervisor.cacheable;
  Alcotest.(check string) "after the run crashed" "crash" (status_of r.Supervisor.trail)

let test_fallback_crash_still_quarantines () =
  let o =
    Obligation.v ~id:"double-crash" ~phase:"test" ~fingerprint:"fp"
      ~fallback:(fun () -> failwith "interp crashed too")
      (fun () -> failwith "compiled crashed")
  in
  let r = Supervisor.supervise Supervisor.default o in
  Alcotest.(check string) "quarantined" "quarantined" (resolution_of r.Supervisor.trail);
  Alcotest.(check bool) "not cacheable" false r.Supervisor.cacheable;
  Alcotest.(check bool) "reports the run's crash" true
    (contains (report_text r.Supervisor.outcome)
       "obligation raised: Failure(\"compiled crashed\")")

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
      Alcotest.(check string) "ladder fell back" "fell-back" (resolution_of l.Pool.trail);
      Alcotest.(check string) "hopeless quarantined" "quarantined" (resolution_of h.Pool.trail)
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

(* the fallback is the reference interpreter over the regenerated
   battery: on every code-proof obligation of the default tiny plan,
   run in dependency order with the pool's outcome hook (so composed
   runs open as their callees are proven), it must reproduce the
   live outcome exactly *)
let test_plan_code_proof_fallback_agrees () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let plan = Engine.Plan.build ~seed:2024 layout in
  let proofs =
    List.filter
      (fun (o : Obligation.t) -> o.Obligation.phase = "code-proofs")
      (Dag.obligations plan.Engine.Plan.dag)
  in
  let finished = Hashtbl.create 64 in
  let compare_one (o : Obligation.t) =
    let id = o.Obligation.id in
    let live = o.Obligation.run () in
    let fallback =
      match o.Obligation.fallback with
      | Some f -> f ()
      | None -> Alcotest.failf "%s: no fallback" id
    in
    Option.iter (fun hook -> hook live) o.Obligation.on_outcome;
    Hashtbl.replace finished id ();
    if fallback.Obligation.reports <> live.Obligation.reports then
      Alcotest.failf "%s: fallback reports differ" id;
    Alcotest.(check (list int)) (id ^ ": totals")
      (let t, p, s, f = Obligation.case_totals [ live ] in [ t; p; s; f ])
      (let t, p, s, f = Obligation.case_totals [ fallback ] in [ t; p; s; f ]);
    Alcotest.(check int) (id ^ ": failures")
      (Obligation.failure_count live) (Obligation.failure_count fallback);
    Alcotest.(check string) (id ^ ": log") live.Obligation.log fallback.Obligation.log
  in
  let rec drain pending =
    let ready, blocked =
      List.partition
        (fun (o : Obligation.t) -> List.for_all (Hashtbl.mem finished) o.Obligation.deps)
        pending
    in
    List.iter compare_one ready;
    match (ready, blocked) with
    | _, [] -> ()
    | [], o :: _ -> Alcotest.failf "%s: dependencies never finish" o.Obligation.id
    | _ -> drain blocked
  in
  drain proofs;
  Alcotest.(check int) "every code-proof obligation compared" 50 (Hashtbl.length finished)

(* ------------------------------------------------------------------ *)
(* Crashes injected into the composed code proofs                      *)

let render execs =
  String.concat "\n"
    (List.concat_map
       (fun (e : Pool.exec) ->
         e.obligation.Obligation.id
         :: List.map Report.to_string e.outcome.Obligation.reports)
       execs)

(* The real composed code-proof DAG, with crashes injected by the test:
   the compiled run of every fifth obligation raises (its interpreter
   fallback stands in), and both executors of every seventh raise (it
   is quarantined, so its callers' proven gate stays closed and they
   run their callees' bodies).  Every obligation that was not
   quarantined must still render the byte-identical verdict of its
   clean monolithic battery, and a quarantined one the crash report:
   no crash can turn a verdict vacuous or divergent. *)
let test_composed_verdicts_survive_crashes () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let crash () = failwith "injected crash" in
  let obls =
    List.mapi
      (fun i (o : Obligation.t) ->
        if i mod 7 = 3 then { o with Obligation.run = crash; fallback = Some crash }
        else if i mod 5 = 0 then { o with Obligation.run = crash }
        else o)
      (List.concat_map snd (Engine.Plan.code_proof_obligations ~seed:2024 layout))
  in
  let execs = Pool.run (Dag.build_exn obls) in
  let ctx = Check.Code_proof.ctx ~seed:2024 layout in
  let expected (e : Pool.exec) =
    let o = e.Pool.obligation in
    let verdict =
      match e.Pool.trail.Supervisor.resolution with
      | Supervisor.Quarantined ->
          report_text (Supervisor.crash_outcome o "Failure(\"injected crash\")")
      | _ -> (
          let fn = List.nth (String.split_on_char '/' o.Obligation.id) 2 in
          match Check.Code_proof.run_function ctx fn with
          | Some (_, r) -> Report.to_string r
          | None -> Alcotest.failf "%s owns no spec" fn)
    in
    o.Obligation.id ^ "\n" ^ verdict
  in
  Alcotest.(check string) "clean monolithic verdicts, crash reports aside"
    (String.concat "\n" (List.map expected execs))
    (render execs);
  let resolutions = List.map (fun (e : Pool.exec) -> resolution_of e.Pool.trail) execs in
  Alcotest.(check bool) "some obligations fell back" true (List.mem "fell-back" resolutions);
  Alcotest.(check bool) "a quarantined callee has callers" true
    (List.exists
       (fun (e : Pool.exec) ->
         e.Pool.trail.Supervisor.resolution = Supervisor.Quarantined
         && List.exists
              (fun (o : Obligation.t) -> List.mem e.obligation.Obligation.id o.Obligation.deps)
              obls)
       execs)

(* ------------------------------------------------------------------ *)
(* Cache corruption fixtures and write-failure surfacing               *)

let counted counter ~fingerprint id =
  Obligation.v ~id ~phase:"test" ~deps:[] ~fingerprint (fun () ->
      incr counter;
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

(* a pack torn after its atomic rename (a write that fsync would have
   caught) is evicted whole by the next process and recomputed *)
let test_torn_pack_evicted_and_recomputed () =
  let dir = fresh_dir () in
  let counter = ref 0 in
  let dag () =
    Dag.build_exn
      [ counted counter ~fingerprint:"t1" "a"; counted counter ~fingerprint:"t2" "b" ]
  in
  (* clean baseline for verdict comparison *)
  let clean = Pool.run (dag ()) in
  ignore (Pool.run ~cache:(Cache.create ~dir) (dag ()));
  (* counter also saw the 2 baseline executions *)
  Alcotest.(check int) "both executed cold" 4 !counter;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".pack" then
        let path = Filename.concat dir f in
        Unix.truncate path ((Unix.stat path).Unix.st_size / 2))
    (Sys.readdir dir);
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
          Alcotest.test_case "legacy crash shape" `Quick
            test_default_config_legacy_crash_shape;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "interp fallback discharges" `Quick
            test_fallback_discharges_crash;
          Alcotest.test_case "fallback crash quarantines" `Quick
            test_fallback_crash_still_quarantines;
          Alcotest.test_case "cacheable fallback, uncacheable" `Quick
            test_pool_caches_fallback_not_quarantine;
          Alcotest.test_case "plan wires code-proof fallbacks" `Quick
            test_plan_code_proofs_have_fallback;
          Alcotest.test_case "code-proof fallback agrees with" `Quick
            test_plan_code_proof_fallback_agrees;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "composed verdicts survive chaos" `Quick
            test_composed_verdicts_survive_crashes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "torn pack evicted + recomputed" `Quick
            test_torn_pack_evicted_and_recomputed;
          Alcotest.test_case "write failures surfaced" `Quick
            test_cache_write_failures_surfaced;
        ] );
    ]
