(* Tests of the incremental verification engine: DAG validation and
   call-graph edges, the scheduler (dependency order, exactly-once
   runs, crash isolation), and the content-addressed proof cache
   (cold populates, warm replays, a fingerprint edit invalidates only
   the obligation and its dependents). *)

open Hyperenclave
module Report = Mirverif.Report
module Obligation = Engine.Obligation
module Dag = Engine.Dag
module Pool = Engine.Pool
module Cache = Engine.Cache
module Plan = Engine.Plan

let layout = Layout.default Geometry.tiny

let pass_obl ?(phase = "test") ?(deps = []) ?(fingerprint = "fp") id =
  Obligation.v ~id ~phase ~deps ~fingerprint (fun () ->
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mirverif-engine-test-%d-%d" (Unix.getpid ()) !n)

(* ------------------------------------------------------------------ *)
(* DAG construction                                                    *)

let test_dag_rejects_duplicates () =
  match Dag.build [ pass_obl "a"; pass_obl "a" ] with
  | Ok _ -> Alcotest.fail "duplicate ids accepted"
  | Error _ -> ()

let test_dag_rejects_unknown_dep () =
  match Dag.build [ pass_obl ~deps:[ "ghost" ] "a" ] with
  | Ok _ -> Alcotest.fail "unknown dependency accepted"
  | Error _ -> ()

let test_dag_rejects_cycle () =
  match Dag.build [ pass_obl ~deps:[ "b" ] "a"; pass_obl ~deps:[ "a" ] "b" ] with
  | Ok _ -> Alcotest.fail "cycle accepted"
  | Error _ -> ()

let test_dag_order_and_reaches () =
  let dag =
    Dag.build_exn
      [ pass_obl "a"; pass_obl ~deps:[ "a" ] "b"; pass_obl ~deps:[ "b" ] "c" ]
  in
  Alcotest.(check (list string))
    "insertion order" [ "a"; "b"; "c" ]
    (List.map (fun (o : Obligation.t) -> o.id) (Dag.obligations dag));
  Alcotest.(check bool) "c reaches a" true (Dag.reaches dag ~src:"c" ~dst:"a");
  Alcotest.(check bool) "a does not reach c" false (Dag.reaches dag ~src:"a" ~dst:"c");
  Alcotest.(check (list string)) "dependents of a" [ "b" ] (Dag.dependents_of dag "a")

(* ------------------------------------------------------------------ *)
(* The real plan: shape and edges                                     *)

let plan =
  let mc =
    { Plan.mc_depth = 3; mc_por = true; mc_flush = true; mc_layout = layout }
  in
  Plan.build ~quick:true ~model_check:mc ~seed:2024 layout

let ids_with_prefix prefix =
  List.filter_map
    (fun (o : Obligation.t) ->
      if String.length o.id >= String.length prefix
         && String.sub o.id 0 (String.length prefix) = prefix
      then Some o.id
      else None)
    (Dag.obligations plan.Plan.dag)

let test_plan_has_all_phases () =
  List.iter
    (fun phase ->
      let n =
        List.length
          (List.filter
             (fun (o : Obligation.t) -> o.phase = phase)
             (Dag.obligations plan.Plan.dag))
      in
      if n = 0 then Alcotest.failf "phase %s has no obligations" phase)
    Plan.phases

let test_plan_one_obligation_per_function () =
  (* 49 paper-scope functions + the EREMOVE extension *)
  Alcotest.(check int) "code-proof obligations" 50
    (List.length (ids_with_prefix "code-proof/"))

(* One dependency edge per direct spec-owned callee — no more, no
   less — and never a back edge. *)
let test_code_proofs_follow_call_graph () =
  let fn_of id =
    match String.split_on_char '/' id with
    | [ _; _; fn ] -> fn
    | _ -> Alcotest.failf "unexpected code-proof id %s" id
  in
  let id_of g =
    match Layers.layer_of_function layout g with
    | Some gl -> Printf.sprintf "code-proof/%s/%s" gl g
    | None -> Alcotest.failf "callee %s owns no layer" g
  in
  let obls =
    List.filter
      (fun (o : Obligation.t) -> o.phase = "code-proofs")
      (Dag.obligations plan.Plan.dag)
  in
  let some_deps = ref false in
  List.iter
    (fun (o : Obligation.t) ->
      let fn = fn_of o.id in
      let expected = List.map id_of (Layers.callees layout fn) in
      Alcotest.(check (slist string compare))
        (Printf.sprintf "%s deps are its callee obligations" o.id)
        expected o.deps;
      List.iter
        (fun d ->
          some_deps := true;
          Alcotest.(check bool)
            (Printf.sprintf "%s reaches %s" o.id d)
            true
            (Dag.reaches plan.Plan.dag ~src:o.id ~dst:d);
          Alcotest.(check bool)
            (Printf.sprintf "%s does not reach %s" d o.id)
            false
            (Dag.reaches plan.Plan.dag ~src:d ~dst:o.id))
        expected)
    obls;
  Alcotest.(check bool) "call graph has edges" true !some_deps

let test_phase_dependencies () =
  let first = function
    | [] -> Alcotest.fail "missing obligations"
    | id :: _ -> id
  in
  let refine = first (ids_with_prefix "refine/") in
  let inv = first (ids_with_prefix "invariants/") in
  let ni = first (ids_with_prefix "noninterference/") in
  let tni = first (ids_with_prefix "trace-ni/") in
  let att = first (ids_with_prefix "attacks/") in
  (* refinement waits on the page-table layer's proofs, invariants on
     the top function-bearing layer's — the anchors the plan actually
     wires now that code-proof edges follow the call graph *)
  let code_pt = first (ids_with_prefix "code-proof/PtQuery/") in
  let code_top = first (ids_with_prefix "code-proof/Hypercalls/") in
  let check src dst =
    Alcotest.(check bool)
      (Printf.sprintf "%s reaches %s" src dst)
      true
      (Dag.reaches plan.Plan.dag ~src ~dst)
  in
  check refine code_pt;
  check inv code_top;
  check ni inv;
  check tni ni;
  check att inv

(* Phase 5's case totals, summed over its [refine/*] obligations.  Its
   flat side steps Pt_flat's mutators, which are the code's low specs:
   a change to what those return (status or state) moves these counts,
   which no cache key records. *)
let test_refinement_totals_pinned () =
  let check what (p : Plan.t) expected =
    let outcomes =
      List.filter_map
        (fun (o : Obligation.t) -> if o.phase = "refinement" then Some (o.run ()) else None)
        (Dag.obligations p.Plan.dag)
    in
    let total, passed, skipped, failed = Obligation.case_totals outcomes in
    Alcotest.(check (list int)) what expected [ total; passed; skipped; failed ]
  in
  check "default, seed 2024" (Plan.build ~seed:2024 layout) [ 1000; 427; 573; 0 ];
  check "quick, seed 2024" (Plan.build ~quick:true ~seed:2024 layout) [ 400; 165; 235; 0 ];
  check "x86_64 quick, seed 2024"
    (Plan.build ~quick:true ~seed:2024 (Layout.default Geometry.x86_64))
    [ 400; 142; 258; 0 ]

(* ------------------------------------------------------------------ *)
(* Cache keys and plan-build cost                                      *)

(* MD5 over the sorted [id<TAB>fingerprint] lines: the whole set of
   proof-cache keys a plan looks up.  The constants are the keys every
   existing cache was filled under; a deliberate fingerprint change
   updates them together with its version tag. *)
let sorted_digest lines =
  lines |> List.sort String.compare |> String.concat "\n" |> Digest.string
  |> Digest.to_hex

let cache_key_digest (p : Plan.t) =
  sorted_digest
    (List.map
       (fun (o : Obligation.t) -> o.id ^ "\t" ^ o.fingerprint)
       (Dag.obligations p.Plan.dag))

(* The same set as the file names {!Cache.key} derives from it: pins
   the key function itself, so the entries on disk stay reachable. *)
let disk_key_digest (p : Plan.t) =
  sorted_digest (List.map Cache.key (Dag.obligations p.Plan.dag))

let test_plan_cache_keys_pinned () =
  let check what n digest disk (p : Plan.t) =
    Alcotest.(check int) (what ^ ": obligations") n (Dag.size p.Plan.dag);
    Alcotest.(check string) (what ^ ": cache keys") digest (cache_key_digest p);
    Alcotest.(check string) (what ^ ": on-disk keys") disk (disk_key_digest p)
  in
  check "default" 333 "bddf6ef9a3815e00ca999ad95d362f1b"
    "89db291f894883b969d6516b0c6e5977" (Plan.build ~seed:2024 layout);
  check "x86_64, no security" 310 "b8c1fc97d5c5c123033f5aec09ec7aa7"
    "f3f52071aa64adac14a010d2ed3d3557"
    (Plan.build ~security:false ~seed:2024 (Layout.default Geometry.x86_64))

(* A tiny layout that no other test builds (it has [epc_pages] EPC
   pages, tiny's default has 8), so the first [Layers] and [Plan] calls
   on it do their work for real. *)
let fresh_layout epc_pages =
  match
    Layout.make ~geom:Geometry.tiny ~normal_pages:8 ~mbuf_page_index:6 ~mbuf_pages:1
      ~monitor_pages:2 ~frame_count:24 ~epc_pages
  with
  | Ok l -> l
  | Error msg -> Alcotest.fail msg

(* A warm run pays for [Layers.warm] and plan build and nothing else:
   no closure compilation, input pool, case battery or composed
   environment.  On a fresh layout the two allocate about 5 MiB (the
   front end, the body digests, the spec and call indexes and the
   plan); compiling every layer's closures as well adds about 15 MiB,
   so the bound catches that work moving back into set-up.  Allocation
   is deterministic, unlike wall time. *)
let test_plan_build_allocation () =
  let fresh = fresh_layout 9 in
  let before = Gc.allocated_bytes () in
  Layers.warm fresh;
  ignore (Plan.build ~seed:2024 fresh);
  let mib = (Gc.allocated_bytes () -. before) /. 1048576. in
  if mib >= 10. then
    Alcotest.failf "Layers.warm + Plan.build allocated %.1f MiB (bound 10)" mib

(* Layers compile on first use, in their first code-proof obligation,
   and the shared per-body memo serves both the monolithic and the
   composed environment.  On a layout on which only plan build ran, a
   same-layer caller's composed battery runs before its callee's
   monolithic one, so the composed environment compiles the layer
   first; both reports must equal those of a fresh ctx run in the
   opposite order. *)
let test_first_use_compile_race () =
  let fresh = fresh_layout 10 in
  ignore (Plan.build ~seed:2024 fresh);
  let fns = List.concat_map (Layers.functions_of_layer fresh) Mem_spec.layer_names in
  let caller, callee =
    match
      List.find_map
        (fun fn ->
          match Layers.same_layer_callees fresh fn with
          | g :: _ -> Some (fn, g)
          | [] -> None)
        (List.rev fns)
    with
    | Some pair -> pair
    | None -> Alcotest.fail "no function with same-layer callees"
  in
  let text = function
    | Some (_, r) -> Report.to_string r
    | None -> Alcotest.fail "function owns no spec"
  in
  let ctx = Check.Code_proof.ctx ~seed:2024 fresh in
  let caller_r = text (Check.Code_proof.run_function_composed ctx caller) in
  let callee_r = text (Check.Code_proof.run_function ctx callee) in
  let seq = Check.Code_proof.ctx ~seed:2024 fresh in
  Alcotest.(check string) (callee ^ ", monolithic")
    (text (Check.Code_proof.run_function seq callee))
    callee_r;
  Alcotest.(check string) (caller ^ ", composed")
    (text (Check.Code_proof.run_function_composed seq caller))
    caller_r;
  Alcotest.(check string) (caller ^ ", composed = monolithic")
    (text (Check.Code_proof.run_function seq caller))
    caller_r

(* The alias summaries of a layout no other test analyzes are computed
   on the first call: it returns the map a direct analysis returns, and
   a second call returns the same physical map. *)
let test_first_use_alias_race () =
  let module A = Analysis.Alias in
  let fresh = fresh_layout 11 in
  Layers.warm fresh;
  let text infos =
    A.StrMap.bindings infos
    |> List.map (fun (fn, (i : A.info)) ->
           let s = i.A.summary in
           Printf.sprintf "%s reads=%s writes=%s ret=%s esc=%s vars=%s" fn
             (A.locs_to_string s.A.fp.A.reads)
             (A.locs_to_string s.A.fp.A.writes)
             (A.locs_to_string s.A.ret)
             (String.concat "," (List.map string_of_int (A.IntSet.elements s.A.esc)))
             (String.concat ";"
                (List.map
                   (fun (v, l) -> v ^ "=" ^ A.locs_to_string l)
                   (A.StrMap.bindings i.A.vars))))
    |> String.concat "\n"
  in
  let m1 = Check.Code_proof.alias_summaries fresh in
  let m2 = Check.Code_proof.alias_summaries fresh in
  let expected =
    text
      (A.analyze ~prim:Check.Code_proof.prim_summary
         (Layers.compiled fresh).Rustlite.Pipeline.program)
  in
  Alcotest.(check int) "every function summarized"
    (Layers.verified_function_count fresh)
    (A.StrMap.cardinal m1);
  Alcotest.(check string) "first call" expected (text m1);
  Alcotest.(check bool) "one shared map" true (m1 == m2)

let tiny3 =
  match
    Geometry.make ~levels:3 ~index_bits:2 ~fb_present:0 ~fb_write:1 ~fb_user:2
      ~fb_huge:3
  with
  | Ok g -> Layout.default g
  | Error msg -> failwith msg

let mc_obligations_of req ~plan_layout =
  let p =
    Plan.build ~quick:true ~security:false ~lints:[] ~model_check:req ~seed:2024
      plan_layout
  in
  List.filter
    (fun (o : Obligation.t) -> o.phase = "model-check")
    (Dag.obligations p.Plan.dag)

(* The model checker explores the request's [mc_layout], whatever the
   plan's layout: one request gives the same obligation on a tiny and
   an x86_64 plan, and another mc layout gives another fingerprint. *)
let test_mc_explores_mc_layout () =
  let keys ~plan_layout mc_layout =
    let mc = { Plan.mc_depth = 3; mc_por = true; mc_flush = true; mc_layout } in
    List.map
      (fun (o : Obligation.t) -> (o.id, o.fingerprint))
      (mc_obligations_of mc ~plan_layout)
  in
  let tiny = keys ~plan_layout:layout layout in
  Alcotest.(check int) "one obligation" 1 (List.length tiny);
  Alcotest.(check (list (pair string string)))
    "x86_64 plan" tiny
    (keys ~plan_layout:(Layout.default Geometry.x86_64) layout);
  let other = keys ~plan_layout:layout tiny3 in
  Alcotest.(check (list string)) "tiny3: same ids" (List.map fst tiny) (List.map fst other);
  List.iter2
    (fun (id, a) (_, b) ->
      Alcotest.(check bool) (id ^ ": tiny3 fingerprint differs") false (String.equal a b))
    tiny other

(* Phase 11 is one obligation, and its outcome is one exploration of
   the request's own config: tiny at depths 1-5 and tiny3 at depth 4,
   on both monitors, with reduction on and off (at depth 5 on only, to
   keep the test short). *)
let test_mc_plan_is_one_exploration () =
  let cases =
    List.concat_map
      (fun depth ->
        List.map
          (fun por -> ("tiny", layout, depth, por))
          (if depth = 5 then [ true ] else [ true; false ]))
      [ 1; 2; 3; 4; 5 ]
    @ [ ("tiny3", tiny3, 4, true); ("tiny3", tiny3, 4, false) ]
  in
  List.iter
    (fun flush ->
      List.iter
        (fun (geometry, mc_layout, depth, por) ->
          let what =
            Printf.sprintf "%s, depth %d, por=%b, flush=%b" geometry depth por flush
          in
          let req = { Plan.mc_depth = depth; mc_por = por; mc_flush = flush; mc_layout } in
          match mc_obligations_of req ~plan_layout:layout with
          | [ o ] ->
              Alcotest.(check string) (what ^ ": the log of one exploration")
                (Mc.Explore.to_log
                   (Mc.Explore.run (Mc.Explore.config ~depth ~flush ~por mc_layout)))
                (o.run ()).Obligation.log
          | obls ->
              Alcotest.failf "%s: %d model-check obligations" what (List.length obls))
        cases)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let render execs =
  String.concat "\n"
    (List.concat_map
       (fun (e : Pool.exec) ->
         e.obligation.Obligation.id
         :: List.map Report.to_string e.outcome.Obligation.reports)
       execs)

let test_stream_seed_deterministic () =
  Alcotest.(check int) "same tag, same stream"
    (Plan.stream_seed ~seed:7 "refine/shard-00")
    (Plan.stream_seed ~seed:7 "refine/shard-00");
  Alcotest.(check bool) "different tags diverge" true
    (Plan.stream_seed ~seed:7 "refine/shard-00"
    <> Plan.stream_seed ~seed:7 "refine/shard-01")

let test_pool_survives_crash () =
  let boom =
    Obligation.v ~id:"boom" ~phase:"test" ~fingerprint:"fp" (fun () ->
        failwith "deliberate")
  in
  let dag = Dag.build_exn [ boom; pass_obl ~deps:[ "boom" ] "after" ] in
  let execs = Pool.run dag in
  Alcotest.(check int) "both obligations complete" 2 (List.length execs);
  let crash = List.hd execs in
  Alcotest.(check int) "crash becomes one failure" 1
    (Obligation.failure_count crash.Pool.outcome);
  let after = List.nth execs 1 in
  Alcotest.(check int) "dependent still ran" 0
    (Obligation.failure_count after.Pool.outcome)

(* The scheduler honours the DAG.  Obligations are pure, so a dependent
   started early still renders the same reports; only the composed code
   proofs' proven gate reads the order, and it would fall back to the
   monolithic battery in silence.  So on seeded random DAGs each
   obligation checks, as it starts, that the [on_outcome] of every
   dependency has fired, and counts its runs. *)
let test_pool_honours_dag () =
  let n = 48 in
  let id i = Printf.sprintf "n-%02d" i in
  let check_run ~seed ~kills =
    let what = Printf.sprintf "seed %d, kills=%b" seed kills in
    let rng = Random.State.make [| seed |] in
    let deps =
      Array.init n (fun i ->
          if i = 0 then []
          else
            List.sort_uniq compare
              (List.init (Random.State.int rng 4) (fun _ ->
                   i - 1 - Random.State.int rng (min i 8))))
    in
    let fired = Array.make n false in
    let runs = Array.make n 0 in
    let obl i =
      Obligation.v ~id:(id i) ~phase:"test" ~deps:(List.map id deps.(i)) ~fingerprint:"fp"
        ~on_outcome:(fun _ -> fired.(i) <- true)
        (fun () ->
          runs.(i) <- runs.(i) + 1;
          let early = List.filter (fun d -> not fired.(d)) deps.(i) in
          let r = Report.empty (id i) in
          Obligation.outcome
            [
              (match early with
              | [] -> Report.add_pass r
              | d :: _ -> Report.add_failure r ~case:"order" ~reason:(id d ^ " had not fired"));
            ])
    in
    let sup =
      if kills then
        {
          Engine.Supervisor.default with
          chaos =
            Some (Engine.Engine_chaos.create ~kinds:[ Fault.Plan.Worker_kill ] ~rate:2 ~seed ());
        }
      else Engine.Supervisor.default
    in
    let execs, stats =
      Pool.run_with_stats ~sup ~max_respawns:1_000 (Dag.build_exn (List.init n obl))
    in
    Alcotest.(check (list string)) (what ^ ": results in DAG order") (List.init n id)
      (List.map (fun (e : Pool.exec) -> e.obligation.Obligation.id) execs);
    List.iter
      (fun (e : Pool.exec) ->
        if Obligation.failure_count e.outcome > 0 then
          Alcotest.failf "%s: %s started early: %s" what e.obligation.Obligation.id
            (String.concat "; " (List.map Report.to_string e.outcome.Obligation.reports)))
      execs;
    let counts = Array.to_list runs in
    if kills then begin
      Alcotest.(check bool) (what ^ ": workers were killed") true (stats.Pool.respawns > 0);
      Alcotest.(check int) (what ^ ": no worker lost") 0 stats.Pool.lost_workers;
      Alcotest.(check bool) (what ^ ": each ran") true (List.for_all (fun c -> c >= 1) counts)
    end
    else
      Alcotest.(check (list int)) (what ^ ": each ran exactly once") (List.init n (fun _ -> 1))
        counts
  in
  List.iter
    (fun seed -> List.iter (fun kills -> check_run ~seed ~kills) [ false; true ])
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Proof cache                                                         *)

let counted counter ?(deps = []) ~fingerprint id =
  Obligation.v ~id ~phase:"test" ~deps ~fingerprint (fun () ->
      incr counter;
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

let statuses execs = List.map (fun (e : Pool.exec) -> e.Pool.cache) execs

let test_cache_round_trip () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let counter = ref 0 in
  let build_dag fp_a =
    (* b's fingerprint contains a's, mirroring how code-proof
       fingerprints digest everything below them: editing a
       invalidates b, but never the independent c *)
    Dag.build_exn
      [
        counted counter ~fingerprint:fp_a "a";
        counted counter ~deps:[ "a" ] ~fingerprint:("b+" ^ fp_a) "b";
        counted counter ~fingerprint:"c-v1" "c";
      ]
  in
  let cold = Pool.run ~cache (build_dag "a-v1") in
  Alcotest.(check int) "cold run executes all" 3 !counter;
  Alcotest.(check bool) "cold run all misses" true
    (List.for_all (( = ) Pool.Miss) (statuses cold));
  Alcotest.(check int) "cold run stores all" 3 (Cache.entry_count cache);
  let warm = Pool.run ~cache (build_dag "a-v1") in
  Alcotest.(check int) "warm run executes nothing" 3 !counter;
  Alcotest.(check bool) "warm run all hits" true
    (List.for_all (( = ) Pool.Hit) (statuses warm));
  Alcotest.(check string) "warm replays the same reports" (render cold) (render warm);
  let edited = Pool.run ~cache (build_dag "a-v2") in
  Alcotest.(check int) "edit re-executes only a and b" 5 !counter;
  Alcotest.(check (list string))
    "a misses, b misses, c hits"
    [ "miss"; "miss"; "hit" ]
    (List.map Pool.cache_status_to_string (statuses edited))

let test_cache_warm_real_plan () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let cold = Pool.run ~cache plan.Plan.dag in
  let warm = Pool.run ~cache plan.Plan.dag in
  Alcotest.(check bool)
    "warm run re-executes zero obligations (code proofs included)" true
    (List.for_all (( = ) Pool.Hit) (statuses warm));
  Alcotest.(check string) "warm run reports identical" (render cold) (render warm)

let only_pack dir =
  match
    List.filter (fun f -> Filename.check_suffix f ".pack") (Array.to_list (Sys.readdir dir))
  with
  | [ pack ] -> Filename.concat dir pack
  | packs -> Alcotest.failf "expected one pack, found %d" (List.length packs)

(* One entry stashed and flushed: the path of the pack it landed in. *)
let flush_one cache dir o =
  Cache.stash cache o (o.Obligation.run ());
  Cache.flush cache;
  only_pack dir

let test_cache_corrupt_entry_is_a_miss () =
  let dir = fresh_dir () in
  let o = pass_obl ~fingerprint:"fp-corrupt" "x" in
  let pack = flush_one (Cache.create ~dir) dir o in
  (* flip the last payload byte: the header still matches, the digest
     does not *)
  let bytes = Bytes.of_string (In_channel.with_open_bin pack In_channel.input_all) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
  Out_channel.with_open_bin pack (fun oc -> Out_channel.output_bytes oc bytes);
  Alcotest.(check bool) "corrupt entry misses" true (Cache.find (Cache.create ~dir) o = None);
  (* the unreadable pack can never become valid (its keys encode the
     fingerprint), so the miss must also evict it *)
  Alcotest.(check bool) "corrupt pack evicted" false (Sys.file_exists pack)

let test_cache_stale_magic_evicted () =
  let dir = fresh_dir () in
  Cache.create ~dir |> ignore;
  let o = pass_obl ~fingerprint:"fp-stale" "y" in
  let file = Filename.concat dir "pack-stale.pack" in
  (* a well-formed pack from a different OCaml toolchain: full-length
     magic header that doesn't match ours, then an arbitrary payload *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        ("MVEC2\n0.00.0-other-compiler-version\n" ^ String.make 64 'x'));
  let cache = Cache.create ~dir in
  Alcotest.(check bool) "stale-magic pack misses" true (Cache.find cache o = None);
  Alcotest.(check bool) "stale-magic pack evicted" false (Sys.file_exists file);
  (* and a subsequent flush repopulates it normally *)
  ignore (flush_one cache dir o);
  Alcotest.(check bool) "restored entry hits" true (Cache.find (Cache.create ~dir) o <> None)

let test_cache_empty_dir_rejected () =
  (match Cache.create ~dir:"" with
  | _ -> Alcotest.fail "empty cache dir accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message mentions the cache" true
        (String.length msg > 0));
  match Cache.create ~dir:"   " with
  | _ -> Alcotest.fail "blank cache dir accepted"
  | exception Invalid_argument _ -> ()

(* Regression: a crash outcome is this run's accident, not a property
   of the fingerprinted inputs — it must not be stored, or every warm
   run replays the failure even after the cause is gone. *)
let test_cache_skips_crash_outcomes () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let attempts = ref 0 in
  let flaky =
    Obligation.v ~id:"flaky" ~phase:"test" ~fingerprint:"fp-flaky" (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "transient";
        Obligation.outcome [ Report.add_pass (Report.empty "flaky") ])
  in
  let first = Pool.run ~cache (Dag.build_exn [ flaky ]) in
  Alcotest.(check int) "first run crashes" 1
    (Obligation.failure_count (List.hd first).Pool.outcome);
  Alcotest.(check int) "crash not stored" 0 (Cache.entry_count cache);
  let second = Pool.run ~cache (Dag.build_exn [ flaky ]) in
  Alcotest.(check string) "second run re-executes" "miss"
    (Pool.cache_status_to_string (List.hd second).Pool.cache);
  Alcotest.(check int) "second run passes" 0
    (Obligation.failure_count (List.hd second).Pool.outcome);
  Alcotest.(check int) "success stored" 1 (Cache.entry_count cache);
  let third = Pool.run ~cache (Dag.build_exn [ flaky ]) in
  Alcotest.(check string) "third run hits" "hit"
    (Pool.cache_status_to_string (List.hd third).Pool.cache);
  Alcotest.(check int) "no further execution" 2 !attempts

(* The batched tier: a cold pool run flushes exactly one pack file; a
   fresh cache on the same directory (a new process, as far as the
   cache can tell) loads it back and replays; a corrupt pack is evicted
   wholesale and degrades to a miss. *)
let test_cache_pack_file_round_trip () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir in
  let counter = ref 0 in
  let dag () =
    Dag.build_exn
      [ counted counter ~fingerprint:"p1" "a"; counted counter ~fingerprint:"p2" "b" ]
  in
  ignore (Pool.run ~cache (dag ()));
  let packs () =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".pack")
  in
  Alcotest.(check int) "cold run writes one pack" 1 (List.length (packs ()));
  let reloaded = Cache.create ~dir in
  Alcotest.(check int) "reloaded index sees both entries" 2 (Cache.entry_count reloaded);
  let warm = Pool.run ~cache:reloaded (dag ()) in
  Alcotest.(check bool) "fresh cache replays from the pack" true
    (List.for_all (( = ) Pool.Hit) (statuses warm));
  Alcotest.(check int) "warm run executes nothing" 2 !counter;
  (* corrupt the pack: the whole file is evicted and everything misses *)
  let pack = Filename.concat dir (List.hd (packs ())) in
  let oc = open_out_bin pack in
  output_string oc "garbage";
  close_out oc;
  let after = Cache.create ~dir in
  Alcotest.(check int) "corrupt pack loads nothing" 0 (Cache.entry_count after);
  Alcotest.(check bool) "corrupt pack evicted" false (Sys.file_exists pack);
  let redo = Pool.run ~cache:after (dag ()) in
  Alcotest.(check bool) "post-eviction run misses and re-executes" true
    (List.for_all (( = ) Pool.Miss) (statuses redo));
  Alcotest.(check int) "re-executed both" 4 !counter

(* Random damage to a real pack: a default-plan pack (about 23 KB) is
   corrupted by single-byte changes at random offsets from a fixed
   seed, at every header byte, and by truncation.  For each damaged
   copy, loading it and looking up every key must not raise, and each
   lookup returns either nothing or exactly the stored outcome. *)
let test_cache_pack_corruption () =
  let dir = fresh_dir () in
  let execs =
    Pool.run ~cache:(Cache.create ~dir) (Plan.build ~seed:2024 layout).Plan.dag
  in
  let pack = only_pack dir in
  let good = In_channel.with_open_bin pack In_channel.input_all in
  let len = String.length good in
  let stored = List.map (fun (e : Pool.exec) -> (e.obligation, e.outcome)) execs in
  let damaged = ref 0 in
  let check what contents =
    Out_channel.with_open_bin pack (fun oc -> Out_channel.output_string oc contents);
    match
      let cache = Cache.create ~dir in
      List.for_all
        (fun (o, outcome) ->
          match Cache.find cache o with None -> true | Some found -> found = outcome)
        stored
    with
    | true -> if not (Sys.file_exists pack) then incr damaged
    | false -> Alcotest.failf "%s: a lookup returned a different outcome" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let flip off byte =
    let b = Bytes.of_string good in
    Bytes.set b off (Char.chr byte);
    Bytes.to_string b
  in
  let rng = Random.State.make [| 2024 |] in
  for i = 1 to 10_000 do
    let off = Random.State.int rng len in
    let byte = (Char.code good.[off] + 1 + Random.State.int rng 255) land 0xff in
    check (Printf.sprintf "flip %d at offset %d" i off) (flip off byte)
  done;
  (* the header (magic with the OCaml version, then the 16-byte
     payload digest) lies within the first 64 bytes *)
  for off = 0 to 63 do
    check (Printf.sprintf "header byte %d" off) (flip off (Char.code good.[off] lxor 0x01))
  done;
  List.iter
    (fun n -> check (Printf.sprintf "truncated to %d bytes" n) (String.sub good 0 n))
    [ 0; 1; 8; 32; 64; len / 2; len - 1 ];
  Alcotest.(check bool) "pack is about 23 KB" true (len > 15_000 && len < 40_000);
  Alcotest.(check int) "every damaged pack was evicted" (10_000 + 64 + 7) !damaged;
  check "intact" good;
  Alcotest.(check bool) "the intact pack still loads" true (Sys.file_exists pack)

(* ------------------------------------------------------------------ *)
(* Override composition: proven gate and shrunk fingerprints           *)

let code_proof_fn_of id =
  match String.split_on_char '/' id with
  | [ _; _; fn ] -> fn
  | _ -> Alcotest.failf "unexpected code-proof id %s" id

let code_proof_id_of fn =
  match Layers.layer_of_function layout fn with
  | Some l -> Printf.sprintf "code-proof/%s/%s" l fn
  | None -> Alcotest.failf "%s owns no layer" fn

(* a caller whose same-layer callees exist — the deepest one available,
   so the gate actually matters *)
let caller_with_stubs () =
  let fns =
    List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names
  in
  match
    List.find_opt
      (fun fn -> Layers.same_layer_callees layout fn <> [])
      (List.rev fns)
  with
  | Some fn -> (fn, Layers.same_layer_callees layout fn)
  | None -> Alcotest.fail "no function with same-layer callees"

let report_text (out : Obligation.outcome) =
  String.concat "\n" (List.map Report.to_string out.Obligation.reports)

(* the proven gate, driven by hand the way the pool drives it: before
   the callees complete, the caller falls back to the monolithic
   battery; after run + on_outcome, the composed battery — and both
   render the identical, non-vacuous report *)
let test_override_gate_opens_after_callees () =
  let obls = List.concat_map snd (Plan.code_proof_obligations ~seed:2024 layout) in
  let find id = List.find (fun (o : Obligation.t) -> o.id = id) obls in
  let caller_fn, stub_fns = caller_with_stubs () in
  let caller = find (code_proof_id_of caller_fn) in
  let closed = caller.Obligation.run () in
  Alcotest.(check bool) "closed-gate outcome is not vacuous" true
    (List.exists
       (fun (r : Report.t) -> r.Report.total > 0)
       closed.Obligation.reports);
  List.iter
    (fun g ->
      let o = find (code_proof_id_of g) in
      let out = o.Obligation.run () in
      Alcotest.(check int) (g ^ " proves clean") 0 (Obligation.failure_count out);
      match o.Obligation.on_outcome with
      | Some f -> f out
      | None -> Alcotest.failf "%s has no on_outcome hook" g)
    stub_fns;
  let opened = caller.Obligation.run () in
  Alcotest.(check string)
    "composed run renders the identical report"
    (report_text closed) (report_text opened)

(* a quarantined callee publishes a crash-shaped (failing) outcome; the
   pool still fires the hook, but the caller's gate must stay closed —
   monolithic fallback, never a vacuous pass on an unproven spec *)
let test_override_gate_quarantined_callee () =
  let obls = List.concat_map snd (Plan.code_proof_obligations ~seed:2024 layout) in
  let find id = List.find (fun (o : Obligation.t) -> o.id = id) obls in
  let caller_fn, stub_fns = caller_with_stubs () in
  List.iter
    (fun g ->
      let o = find (code_proof_id_of g) in
      let crash =
        Obligation.outcome
          [ Report.add_failure (Report.empty g) ~case:g
              ~reason:"obligation raised: simulated quarantine" ]
      in
      match o.Obligation.on_outcome with
      | Some f -> f crash
      | None -> Alcotest.failf "%s has no on_outcome hook" g)
    stub_fns;
  let caller = find (code_proof_id_of caller_fn) in
  let out = caller.Obligation.run () in
  let mono =
    match
      Check.Code_proof.run_function (Check.Code_proof.ctx ~seed:2024 layout) caller_fn
    with
    | Some (_, r) -> Report.to_string r
    | None -> Alcotest.failf "%s owns no spec" caller_fn
  in
  Alcotest.(check bool) "quarantine fallback is not vacuous" true
    (List.exists (fun (r : Report.t) -> r.Report.total > 0) out.Obligation.reports);
  Alcotest.(check string)
    "fallback equals the monolithic verdict"
    mono (report_text out)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* invalidation scope: a function's fingerprint mentions its own body
   digest and its direct callees' — and no other function's.  Editing
   one mid-stack function therefore invalidates exactly itself and its
   direct callers; everything two or more steps up keeps running the
   unchanged callee *specs* and stays warm *)
let test_override_fingerprints_shrink () =
  let obls = List.concat_map snd (Plan.code_proof_obligations ~seed:2024 layout) in
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  let digest_of fn =
    match Mir.Syntax.find_body program fn with
    | Some b -> Digest.to_hex (Digest.string (Mir.Pp.body_to_string b))
    | None -> "missing"
  in
  let fns =
    List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names
  in
  List.iter
    (fun (o : Obligation.t) ->
      let fn = code_proof_fn_of o.id in
      let fp = o.Obligation.fingerprint in
      Alcotest.(check bool)
        (fn ^ ": fingerprint digests its own body")
        true
        (contains fp ("own=" ^ digest_of fn));
      let callees = Layers.callees layout fn in
      List.iter
        (fun g ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: fingerprint digests callee %s's spec source" fn g)
            true
            (contains fp (g ^ "=" ^ digest_of g)))
        callees;
      List.iter
        (fun g ->
          if g <> fn && not (List.mem g callees) then
            Alcotest.(check bool)
              (Printf.sprintf "%s: fingerprint independent of %s" fn g)
              false
              (contains fp (digest_of g)))
        fns)
    obls

(* override cost, counted: stubbing proven same-layer callees with
   their specs never makes a battery execute more MIR steps than
   running their bodies.  Both sides run the engine's own linkage
   ([Layers.compiled_for] and [Code_proof.composed_for]) over the cases
   the battery executes (those where the spec is defined); the OCaml
   cost of evaluating a spec is not a MIR step, so this counts the
   code the composition skips, not its wall-clock *)
let test_override_steps_never_grow () =
  List.iter
    (fun (gname, geometry) ->
      let layout = Layout.default geometry in
      let ctx = Check.Code_proof.ctx ~seed:2024 layout in
      let battery_steps cenv (c : Absdata.t Mirverif.Refine.check) =
        Seq.fold_left
          (fun acc (cs : Absdata.t Mirverif.Refine.case) ->
            let spec_args = Option.value ~default:cs.args cs.spec_args in
            match Mirverif.Spec.apply c.spec cs.abs spec_args with
            | Error _ -> acc
            | Ok _ -> (
                match
                  Mir.Compile.call ~fuel:c.fuel cenv ~abs:cs.abs ~mem:cs.mem c.fn
                    cs.args
                with
                | Ok o -> acc + o.Mir.Interp.steps
                | Error e ->
                    Alcotest.failf "%s: a battery case faulted: %s" c.fn
                      (Mir.Interp.error_to_string e)))
          0 c.cases
      in
      let composed, monolithic =
        List.fold_left
          (fun (comp_total, mono_total) fn ->
            match Check.Code_proof.check_function ctx fn with
            | None -> (comp_total, mono_total)
            | Some (lname, c) ->
                let mono = battery_steps (Layers.compiled_for layout ~layer:lname) c in
                let comp = battery_steps (Check.Code_proof.composed_for ctx lname) c in
                if comp > mono then
                  Alcotest.failf "%s (%s): composed battery runs %d MIR steps, \
                                  monolithic %d"
                    fn gname comp mono;
                (comp_total + comp, mono_total + mono))
          (0, 0)
          (List.filter
             (fun fn -> Layers.same_layer_callees layout fn <> [])
             (List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names))
      in
      Alcotest.(check bool)
        (gname ^ ": composition skips callee bodies")
        true (composed < monolithic))
    [ ("tiny", Geometry.tiny); ("x86_64", Geometry.x86_64) ]

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

(* the pool's timestamps all come from Engine.Clock, so a mocked source
   makes the schedule metadata fully deterministic *)
let test_clock_mockable () =
  let t = ref 0.0 in
  let fake () =
    t := !t +. 1.0;
    !t
  in
  let execs =
    Engine.Clock.with_source fake (fun () ->
        Pool.run (Dag.build_exn [ pass_obl "a"; pass_obl ~deps:[ "a" ] "b" ]))
  in
  (* fake clock ticks: t0=1, then started/finished pairs 2,3 and 4,5 *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "deterministic timestamps"
    [ (1.0, 2.0); (3.0, 4.0) ]
    (List.map (fun (e : Pool.exec) -> (e.started, e.finished)) execs);
  Alcotest.(check (float 0.0)) "wall_of is the last finish" 4.0 (Pool.wall_of execs);
  (* and the real source is restored afterwards *)
  Alcotest.(check bool) "real clock restored" true (Engine.Clock.now () > 1e6)

(* ------------------------------------------------------------------ *)
(* The security corpus                                                 *)

(* A report in full: [Report.to_string] shows five failures at most. *)
let report_text r =
  String.concat "\n"
    (Report.to_string r
    :: List.map
         (fun (f : Report.failure) -> Printf.sprintf "%s: %s" f.Report.case f.Report.reason)
         (Report.failures r))

let outcome_text (o : Obligation.outcome) =
  String.concat "\n" (o.Obligation.log :: List.map report_text o.Obligation.reports)

(* Phase 6 without verdict reuse: one [Invariants.check] per state and
   per enabled successor. *)
let plain_phase6 ~states ~actions =
  let verdict rep ~case (st : Security.State.t) =
    match Security.Invariants.check st.Security.State.mon with
    | Ok () -> Report.add_pass rep
    | Error reason -> Report.add_failure rep ~case ~reason
  in
  ( List.fold_left
      (fun rep (label, st) -> verdict rep ~case:label st)
      (Report.empty "invariants on reachable states") states,
    List.fold_left
      (fun rep (label, st) ->
        List.fold_left
          (fun rep a ->
            match Security.Transition.step st a with
            | Error _ -> Report.add_skip rep
            | Ok st' ->
                verdict rep
                  ~case:(label ^ " / " ^ Security.Transition.action_to_string a)
                  st')
          rep actions)
      (Report.empty "invariant preservation") states )

(* The states and secret pairs of phases 6-8 generated one trace at a
   time, with no corpus: [Gen.trace], [Gen.ensure_enclave_active] and
   [Gen.perturb_secrets], as the plan used them before it shared them. *)
let plain_states ~seed ~steps ~lo ~hi =
  List.init (hi - lo) (fun j ->
      let i = lo + j in
      let st = Check.Gen.trace ~seed:(seed + i) ~steps layout in
      if i mod 2 = 1 then
        ( Printf.sprintf "trace[seed=%d+%d,enclave]" seed i,
          Check.Gen.ensure_enclave_active layout st )
      else (Printf.sprintf "trace[seed=%d+%d]" seed i, st))

let plain_pairs ~seed ~steps ~observer ~n =
  List.init n (fun i ->
      let st = Check.Gen.trace ~seed:(seed + i) ~steps layout in
      let st =
        match observer with
        | _ when i mod 2 = 0 -> st
        | Security.Principal.Enclave eid ->
            Check.Gen.ensure_enclave_active ~prefer:eid layout st
        | Security.Principal.Os -> Check.Gen.ensure_enclave_active layout st
      in
      ( Printf.sprintf "pair[seed=%d+%d]" seed i,
        st,
        Check.Gen.perturb_secrets ~seed:(seed + 7919 + i) ~observer st ))

(* The value of [;key=] in a fingerprint. *)
let fp_field fp key =
  let pat = ";" ^ key ^ "=" in
  let n = String.length fp and m = String.length pat in
  let rec find i =
    if i + m > n then Alcotest.failf "no %s in fingerprint %s" key fp
    else if String.sub fp i m = pat then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = Option.value ~default:n (String.index_from_opt fp start ';') in
  String.sub fp start (stop - start)

let fp_int fp key = int_of_string (fp_field fp key)

let observer_of name =
  match
    List.find_opt
      (fun p -> Security.Principal.to_string p = name)
      Security.Principal.[ Os; Enclave 1; Enclave 2 ]
  with
  | Some p -> p
  | None -> Alcotest.failf "unknown observer %s" name

(* What an invariants, noninterference or trace-NI obligation reports
   when its inputs come from the plain generators, read off its
   fingerprint. *)
let plain_outcome (o : Obligation.t) =
  let fp = o.Obligation.fingerprint in
  let seed = fp_int fp "seed" and steps = fp_int fp "steps" in
  let actions = Check.Gen.action_battery layout in
  let reports =
    match o.Obligation.phase with
    | "invariants" ->
        let lo, hi = Scanf.sscanf (fp_field fp "states") "%d..%d" (fun lo hi -> (lo, hi)) in
        let inv, pres = plain_phase6 ~states:(plain_states ~seed ~steps ~lo ~hi) ~actions in
        [ inv; pres ]
    | "noninterference" -> (
        let observer = observer_of (fp_field fp "observer") in
        let pairs () = plain_pairs ~seed ~steps ~observer ~n:(fp_int fp "pairs") in
        match fp_field fp "lemma" with
        | "integrity" ->
            let states = plain_states ~seed ~steps ~lo:0 ~hi:(fp_int fp "states") in
            [ Security.Noninterference.check_integrity ~observer ~states ~actions ]
        | "local-consistency" ->
            [ Security.Noninterference.check_local_consistency ~observer ~pairs:(pairs ())
                ~actions ]
        | "inactive-consistency" ->
            [ Security.Noninterference.check_inactive_consistency ~observer
                ~pairs:(pairs ()) ~actions ]
        | lemma -> Alcotest.failf "unknown lemma %s" lemma)
    | "trace-ni" ->
        let observer = observer_of (fp_field fp "observer") in
        let pairs = plain_pairs ~seed:(seed + 1) ~steps ~observer ~n:(fp_int fp "pairs") in
        let schedules =
          Check.Gen.schedules ~n:(fp_int fp "schedules") ~len:(fp_int fp "len") ~seed layout
        in
        [ Security.Noninterference.check_trace ~observer ~pairs ~schedules ]
    | phase -> Alcotest.failf "%s: not a corpus phase" phase
  in
  outcome_text (Obligation.outcome reports)

let corpus_obligations (plan : Plan.t) =
  List.filter
    (fun (o : Obligation.t) ->
      List.mem o.Obligation.phase [ "invariants"; "noninterference"; "trace-ni" ])
    (Dag.obligations plan.Plan.dag)

let same_states what expected actual =
  Alcotest.(check (list string)) (what ^ ": labels") (List.map fst expected)
    (List.map fst actual);
  List.iter2
    (fun (label, st) (_, st') ->
      if not (Security.State.equal st st') then Alcotest.failf "%s: %s differs" what label)
    expected actual

let same_pairs what expected actual =
  Alcotest.(check (list string)) (what ^ ": labels")
    (List.map (fun (l, _, _) -> l) expected)
    (List.map (fun (l, _, _) -> l) actual);
  List.iter2
    (fun (label, a, b) (_, a', b') ->
      if not (Security.State.equal a a' && Security.State.equal b b') then
        Alcotest.failf "%s: %s differs" what label)
    expected actual

(* Every invariants, noninterference and trace-NI obligation reports
   the same, byte for byte, whatever ran before it on its plan's
   corpus: run in DAG order on one fresh plan, in reverse order on
   another, and alone on a plan of its own; and each equals the
   unshared reference.  An all-pass report shows only counts, so the
   states and pairs the two ordered runs left in their corpora must
   also equal the plain generators' one by one.  The DAG-order plan
   holds one trace per distinct seed the phases read. *)
let test_security_corpus_agrees () =
  List.iter
    (fun (seed, quick) ->
      let what id = Printf.sprintf "seed %d%s, %s" seed (if quick then " quick" else "") id in
      let fresh () = Plan.build ~quick ~seed layout in
      let run_all order =
        let plan = fresh () in
        let obls = corpus_obligations plan in
        let texts =
          List.map
            (fun (o : Obligation.t) -> (o.Obligation.id, outcome_text (o.Obligation.run ())))
            (order obls)
        in
        (plan, obls, texts)
      in
      let plan, obls, forward = run_all Fun.id in
      let plan_rev, _, backward = run_all List.rev in
      Alcotest.(check int) (what "security obligations") (if quick then 14 else 17)
        (List.length obls);
      let param phase key =
        match List.find_opt (fun (o : Obligation.t) -> o.Obligation.phase = phase) obls with
        | Some o -> fp_int o.Obligation.fingerprint key
        | None -> Alcotest.failf "no %s obligation" phase
      in
      let steps = param "noninterference" "steps" in
      let nstates = param "noninterference" "states" in
      let npairs = param "noninterference" "pairs" and ntrace = param "trace-ni" "pairs" in
      (* seeds read: the states [0, states), the pairs [0, pairs) and
         the trace-NI pairs [1, 1 + pairs] *)
      Alcotest.(check int) (what "traces generated, one per seed")
        (max nstates (max npairs (1 + ntrace)))
        (Check.Gen.Corpus.traces plan.Plan.corpus);
      let states = plain_states ~seed ~steps ~lo:0 ~hi:nstates in
      let pairs =
        List.map
          (fun observer ->
            ( observer,
              plain_pairs ~seed ~steps ~observer ~n:npairs,
              plain_pairs ~seed:(seed + 1) ~steps ~observer ~n:ntrace ))
          Security.Principal.[ Os; Enclave 1; Enclave 2 ]
      in
      List.iter
        (fun (order, (p : Plan.t)) ->
          let c = p.Plan.corpus in
          same_states (what (order ^ " states")) states
            (Check.Gen.Corpus.states c ~lo:0 ~hi:nstates);
          List.iter
            (fun (observer, ni, tni) ->
              let obs = Security.Principal.to_string observer in
              same_pairs (what (order ^ " pairs vs " ^ obs)) ni
                (Check.Gen.Corpus.pairs c ~off:0 ~observer ~n:npairs);
              same_pairs (what (order ^ " trace pairs vs " ^ obs)) tni
                (Check.Gen.Corpus.pairs c ~off:1 ~observer ~n:ntrace))
            pairs)
        [ ("DAG order", plan); ("reverse order", plan_rev) ];
      List.iter
        (fun (o : Obligation.t) ->
          let id = o.Obligation.id in
          let alone =
            match Dag.find (fresh ()).Plan.dag id with
            | Some o -> outcome_text (o.Obligation.run ())
            | None -> Alcotest.failf "%s missing from a fresh plan" id
          in
          let plain = plain_outcome o in
          Alcotest.(check string) (what (id ^ ": DAG order")) plain (List.assoc id forward);
          Alcotest.(check string) (what (id ^ ": reverse order")) plain (List.assoc id backward);
          Alcotest.(check string) (what (id ^ ": alone")) plain alone)
        obls)
    [ (2024, false); (2024, true); (7, false); (7, true); (31337, false); (31337, true) ]

(* Phase 6 on states that fail invariants (the Fig. 5 scenarios and the
   shallow copy, plus the healthy one), with the OS and an enclave
   active: the shared-verdict function reports exactly what one
   [Invariants.check] per successor reports.  The states must exercise
   both sides of the reuse: successors that keep the pre-state's
   failing monitor, and monitor-changing successors whose verdict
   differs from the pre-state's. *)
let test_phase6_failing_states () =
  let states =
    List.concat_map
      (fun (sc : Security.Attacks.scenario) ->
        match sc.Security.Attacks.build () with
        | Error msg -> Alcotest.failf "%s: %s" sc.Security.Attacks.name msg
        | Ok mon ->
            let st = { (Security.State.boot layout) with Security.State.mon } in
            [ (sc.Security.Attacks.name, st);
              (sc.Security.Attacks.name ^ ",enclave", Check.Gen.ensure_enclave_active layout st) ])
      Security.Attacks.all
  in
  let actions = Check.Gen.action_battery layout in
  let inv, pres = Security.Invariants.check_reachable ~states ~actions in
  let inv', pres' = plain_phase6 ~states ~actions in
  Alcotest.(check string) "invariants on the states" (report_text inv') (report_text inv);
  Alcotest.(check string) "invariant preservation" (report_text pres') (report_text pres);
  let kept = ref 0 and changed = ref 0 in
  List.iter
    (fun (_, (st : Security.State.t)) ->
      let v = Security.Invariants.check st.Security.State.mon in
      List.iter
        (fun a ->
          match Security.Transition.step st a with
          | Error _ -> ()
          | Ok st' ->
              if Result.is_error v && st'.Security.State.mon == st.Security.State.mon then incr kept
              else if Security.Invariants.check st'.Security.State.mon <> v then incr changed)
        actions)
    states;
  Alcotest.(check bool) "a successor keeps a failing monitor" true (!kept > 0);
  Alcotest.(check bool) "a monitor-changing successor changes the verdict" true (!changed > 0);
  Alcotest.(check bool) "failures reported" true (Report.failure_count pres > 0)

(* A run that replays every security obligation from the cache
   generates no trace: the corpus fills only as obligations execute. *)
let test_warm_plan_generates_nothing () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let cold = Plan.build ~quick:true ~seed:2024 layout in
  ignore (Pool.run ~cache cold.Plan.dag);
  Alcotest.(check int) "cold plan: one trace per seed read" 8
    (Check.Gen.Corpus.traces cold.Plan.corpus);
  let warm = Plan.build ~quick:true ~seed:2024 layout in
  let execs = Pool.run ~cache warm.Plan.dag in
  Alcotest.(check bool) "warm run replays every obligation" true
    (List.for_all (( = ) Pool.Hit) (statuses execs));
  Alcotest.(check int) "warm plan: no trace" 0 (Check.Gen.Corpus.traces warm.Plan.corpus)

(* ------------------------------------------------------------------ *)
(* Phase 3b summary tables                                             *)

let absint_of (plan : Plan.t) =
  List.filter
    (fun (o : Obligation.t) -> o.Obligation.phase = "absint")
    (Dag.obligations plan.Plan.dag)

(* What an absint obligation reports when its SCC is checked without a
   table, read off its id [absint/<domain>/<members joined by +>]: the
   findings of a plain check, and one report with a pass per member and
   per discharge certificate and a failure per error, as the plan
   renders them. *)
let plain_absint layout (o : Obligation.t) =
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  let domain, members =
    match String.split_on_char '/' o.Obligation.id with
    | [ "absint"; domain; scc ] -> (domain, String.split_on_char '+' scc)
    | _ -> Alcotest.failf "%s: not an absint obligation" o.Obligation.id
  in
  let findings =
    match domain with
    | "secret-flow" ->
        fst
          (Analysis.Secret_flow.check
             (Security.Labels.secret_flow_config layout program)
             ~funcs:members)
    | "interval" -> fst (Analysis.Interval_lint.check program ~funcs:members)
    | d -> Alcotest.failf "unknown absint domain %s" d
  in
  let report =
    List.fold_left
      (fun rep (fn, (f : Analysis.Lint.finding)) ->
        match f.Analysis.Lint.severity with
        | Analysis.Lint.Info -> Report.add_pass rep
        | Analysis.Lint.Error ->
            Report.add_failure rep
              ~case:
                (Printf.sprintf "%s %s@%s"
                   (Analysis.Lint.to_string f.Analysis.Lint.kind)
                   fn f.Analysis.Lint.where)
              ~reason:f.Analysis.Lint.detail)
      (Report.empty o.Obligation.id) findings
  in
  Obligation.outcome ~findings
    [ List.fold_left (fun rep _ -> Report.add_pass rep) report members ]

let findings_text (o : Obligation.outcome) =
  List.map
    (fun (fn, f) -> fn ^ " " ^ Analysis.Lint.finding_to_string f)
    o.Obligation.findings

(* Every absint obligation reports exactly what a check without a table
   reports, however much of its plan's tables earlier obligations
   filled: run in DAG order on one fresh plan, in reverse order on
   another, alone on fresh tables, and through the pool over a cache
   that holds every other absint obligation (so only the rest execute,
   for each half).  A cold default plan computes 82 secret-flow
   summaries at seed 2024, against one closure per SCC without the
   table, and analyzes no SCC again. *)
let test_absint_table_agrees () =
  List.iter
    (fun (what, build, lay) ->
      let plain =
        List.map
          (fun (o : Obligation.t) -> (o.Obligation.id, plain_absint lay o))
          (absint_of (build ()))
      in
      let agree how (o : Obligation.t) (out : Obligation.outcome) =
        let id = o.Obligation.id in
        let expected = List.assoc id plain in
        let label = Printf.sprintf "%s, %s: %s" what how id in
        Alcotest.(check (list string)) (label ^ " findings") (findings_text expected)
          (findings_text out);
        Alcotest.(check string) (label ^ " report") (outcome_text expected) (outcome_text out)
      in
      let in_order how order =
        let plan = build () in
        List.iter (fun (o : Obligation.t) -> agree how o (o.Obligation.run ())) (order (absint_of plan));
        plan
      in
      let forward = in_order "DAG order" Fun.id in
      ignore (in_order "reverse order" List.rev);
      List.iter
        (fun (o : Obligation.t) ->
          match
            List.find_opt
              (fun (o' : Obligation.t) -> o'.Obligation.id = o.Obligation.id)
              (Plan.absint_obligations lay)
          with
          | Some alone -> agree "alone" alone (alone.Obligation.run ())
          | None -> Alcotest.failf "%s missing from fresh absint obligations" o.Obligation.id)
        (absint_of forward);
      List.iter
        (fun half ->
          let plan = build () in
          let obls = absint_of plan in
          let cache = Cache.create ~dir:(fresh_dir ()) in
          List.iteri
            (fun i (o : Obligation.t) ->
              if i mod 2 <> half then Cache.stash cache o (List.assoc o.Obligation.id plain))
            obls;
          Cache.flush cache;
          let execs = Pool.run ~cache (Dag.build_exn obls) in
          List.iteri
            (fun i (e : Pool.exec) ->
              let how = Printf.sprintf "half %d over a cache of the other" half in
              Alcotest.(check bool) (how ^ ": executed iff not cached") true
                (e.Pool.cache = if i mod 2 = half then Pool.Miss else Pool.Hit);
              agree how e.Pool.obligation e.Pool.outcome)
            execs)
        [ 0; 1 ];
      let tables = forward.Plan.absint_tables in
      Alcotest.(check int) (what ^ ": no secret-flow SCC analyzed again") 0
        (Analysis.Secret_flow.A.table_reruns tables.Plan.secret_flow);
      Alcotest.(check int) (what ^ ": no interval SCC analyzed again") 0
        (Analysis.Interval_lint.A.table_reruns tables.Plan.interval);
      if what = "tiny" then
        Alcotest.(check int) "tiny: secret-flow summaries computed" 82
          (Analysis.Secret_flow.A.table_summaries tables.Plan.secret_flow))
    [
      ("tiny", (fun () -> Plan.build ~seed:2024 layout), layout);
      ( "x86_64",
        (fun () ->
          Plan.build ~security:false ~seed:2024 (Layout.default Geometry.x86_64)),
        Layout.default Geometry.x86_64 );
    ]

(* A run that replays every absint obligation from the cache computes
   no summary: the tables fill only as obligations execute. *)
let test_warm_plan_computes_no_summary () =
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let counts (p : Plan.t) =
    let t = p.Plan.absint_tables in
    [
      Analysis.Secret_flow.A.table_summaries t.Plan.secret_flow;
      Analysis.Secret_flow.A.table_reruns t.Plan.secret_flow;
      Analysis.Interval_lint.A.table_summaries t.Plan.interval;
      Analysis.Interval_lint.A.table_reruns t.Plan.interval;
    ]
  in
  let cold = Plan.build ~quick:true ~seed:2024 layout in
  ignore (Pool.run ~cache cold.Plan.dag);
  Alcotest.(check (list int)) "cold plan: summaries and reruns" [ 82; 0; 0; 0 ] (counts cold);
  let warm = Plan.build ~quick:true ~seed:2024 layout in
  let execs = Pool.run ~cache warm.Plan.dag in
  Alcotest.(check bool) "warm run replays every obligation" true
    (List.for_all (( = ) Pool.Hit) (statuses execs));
  Alcotest.(check (list int)) "warm plan: no summary" [ 0; 0; 0; 0 ] (counts warm)

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)

let test_jsonx () =
  let open Engine.Jsonx in
  Alcotest.(check string)
    "escaping" "{\"a\\\"b\": [1, true, \"x\"]}"
    (to_string (Obj [ ("a\"b", List [ Int 1; Bool true; Str "x" ]) ]));
  let ml = to_multiline_string (Obj [ ("k", Int 1); ("l", List [ Int 2; Int 3 ]) ]) in
  Alcotest.(check bool) "one scalar per line" true
    (List.exists (( = ) "  \"k\": 1,") (String.split_on_char '\n' ml))

let () =
  Alcotest.run "engine"
    [
      ( "dag",
        [
          Alcotest.test_case "duplicates" `Quick test_dag_rejects_duplicates;
          Alcotest.test_case "unknown dep" `Quick test_dag_rejects_unknown_dep;
          Alcotest.test_case "cycle" `Quick test_dag_rejects_cycle;
          Alcotest.test_case "order and reaches" `Quick test_dag_order_and_reaches;
        ] );
      ( "plan",
        [
          Alcotest.test_case "all phases present" `Quick test_plan_has_all_phases;
          Alcotest.test_case "one obligation per function" `Quick
            test_plan_one_obligation_per_function;
          Alcotest.test_case "call-graph edges" `Quick
            test_code_proofs_follow_call_graph;
          Alcotest.test_case "phase dependencies" `Quick test_phase_dependencies;
          Alcotest.test_case "phase-5 totals pinned" `Quick test_refinement_totals_pinned;
          Alcotest.test_case "cache keys pinned" `Quick test_plan_cache_keys_pinned;
          Alcotest.test_case "build allocation" `Quick test_plan_build_allocation;
          Alcotest.test_case "first-use compile race" `Quick test_first_use_compile_race;
          Alcotest.test_case "first-use alias summaries race" `Quick
            test_first_use_alias_race;
          Alcotest.test_case "model check explores its own layout" `Quick
            test_mc_explores_mc_layout;
          Alcotest.test_case "model check is one exploration" `Slow
            test_mc_plan_is_one_exploration;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stream seeds" `Quick test_stream_seed_deterministic;
          Alcotest.test_case "crash isolation" `Quick test_pool_survives_crash;
          Alcotest.test_case "dependency order, exactly once" `Quick test_pool_honours_dag;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round trip + invalidation" `Quick test_cache_round_trip;
          Alcotest.test_case "warm real plan" `Quick test_cache_warm_real_plan;
          Alcotest.test_case "corrupt entry" `Quick test_cache_corrupt_entry_is_a_miss;
          Alcotest.test_case "stale magic evicted" `Quick test_cache_stale_magic_evicted;
          Alcotest.test_case "empty dir rejected" `Quick test_cache_empty_dir_rejected;
          Alcotest.test_case "crash outcomes not cached" `Quick
            test_cache_skips_crash_outcomes;
          Alcotest.test_case "pack file round trip" `Quick
            test_cache_pack_file_round_trip;
          Alcotest.test_case "pack corruption is a miss" `Quick
            test_cache_pack_corruption;
        ] );
      ( "overrides",
        [
          Alcotest.test_case "gate opens after callees" `Quick
            test_override_gate_opens_after_callees;
          Alcotest.test_case "quarantined callee falls back" `Quick
            test_override_gate_quarantined_callee;
          Alcotest.test_case "fingerprints shrink to direct callees" `Quick
            test_override_fingerprints_shrink;
          Alcotest.test_case "composed batteries run no more MIR steps" `Quick
            test_override_steps_never_grow;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "security corpus agrees" `Slow test_security_corpus_agrees;
          Alcotest.test_case "phase 6 on failing states" `Quick test_phase6_failing_states;
          Alcotest.test_case "warm plan generates no trace" `Quick
            test_warm_plan_generates_nothing;
        ] );
      ( "absint",
        [
          Alcotest.test_case "absint table agrees" `Quick test_absint_table_agrees;
          Alcotest.test_case "warm plan computes no summary" `Quick
            test_warm_plan_computes_no_summary;
        ] );
      ( "clock",
        [
          Alcotest.test_case "mockable source" `Quick test_clock_mockable;
        ] );
      ("jsonx", [ Alcotest.test_case "emission" `Quick test_jsonx ]);
    ]
