(* Engine scaling benchmark: cold/warm proof-cache wall-times and
   jobs-vs-speedup points for the obligation pool, emitted as
   BENCH_engine.json (consumed by CI as an artifact; see
   EXPERIMENTS.md).  The DAG comes from Plan.build, so the measured
   obligations include the static-analysis phase (one dependency-free
   lint obligation per function) alongside the proof phases.

   Run with: dune exec bench/engine_bench.exe -- [--quick] [--out FILE] *)

open Hyperenclave

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let out = ref "BENCH_engine.json" in
  Array.iteri
    (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  let seed = 2024 in
  let layout = Layout.default Geometry.tiny in
  let plan, build_s = time (fun () -> Engine.Plan.build ~quick ~seed layout) in
  let dag = plan.Engine.Plan.dag in

  (* jobs scaling, no cache: every obligation executes.  Best of two
     runs per point — the gate in scripts/ci.sh compares these walls,
     so a single scheduler hiccup must not fail CI. *)
  let jobs_points =
    List.map
      (fun jobs ->
        let execs, wall1 = time (fun () -> Engine.Pool.run ~jobs dag) in
        let _, wall2 = time (fun () -> Engine.Pool.run ~jobs dag) in
        (jobs, Float.min wall1 wall2, execs))
      [ 1; 2; 4 ]
  in
  let serial, serial_execs =
    let _, w, e = List.find (fun (j, _, _) -> j = 1) jobs_points in
    (w, e)
  in
  (* per-phase busy time on the serial run: where the wall goes *)
  let phase_walls =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : Engine.Pool.exec) ->
        let p = e.obligation.Engine.Obligation.phase in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl p) in
        Hashtbl.replace tbl p (prev +. (e.finished -. e.started)))
      serial_execs;
    Hashtbl.fold (fun p w acc -> (p, w) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in

  (* proof cache: cold run populates, warm run replays *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mirverif-engine-bench-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let cache = Engine.Cache.create ~dir in
  let cold_execs, cold = time (fun () -> Engine.Pool.run ~cache ~jobs:1 dag) in
  let warm_execs, warm = time (fun () -> Engine.Pool.run ~cache ~jobs:1 dag) in
  let hits execs =
    List.length (List.filter (fun (e : Engine.Pool.exec) -> e.cache = Engine.Pool.Hit) execs)
  in
  rm_rf dir;

  (* override composition: cold code-proof wall with same-layer callees
     stubbed by their contracts vs executing their bodies.  Fresh
     obligations per mode (so the composed run starts with its proven
     gates closed, exactly like a cold engine run); the modes are
     interleaved and each wall is the best of [override_rounds], because
     the gate in scripts/ci.sh compares them at 10 % and the full
     batteries finish in milliseconds — with only a few rounds, one slow
     spell of the host or one GC major slice can fail the gate. *)
  let override_rounds = 20 in
  let code_proof_dag ~overrides =
    Engine.Dag.build_exn
      (List.concat_map snd
         (Engine.Plan.code_proof_obligations ~seed ~overrides layout))
  in
  let ov_off_dag = code_proof_dag ~overrides:false in
  let ov_on_dag = code_proof_dag ~overrides:true in
  let ov_off = ref infinity and ov_on = ref infinity in
  for _ = 1 to override_rounds do
    let _, woff = time (fun () -> Engine.Pool.run ~jobs:1 ov_off_dag) in
    let _, won = time (fun () -> Engine.Pool.run ~jobs:1 ov_on_dag) in
    ov_off := Float.min !ov_off woff;
    ov_on := Float.min !ov_on won
  done;
  let ov_off = !ov_off and ov_on = !ov_on in

  (* the same comparison restricted to the functions that actually have
     same-layer callees — the deep call trees the composition targets;
     everything else is identical in both modes and only dilutes the
     ratio *)
  let ctx = Check.Code_proof.ctx layout in
  let stubbed_fns =
    List.filter
      (fun fn -> Layers.same_layer_callees layout fn <> [])
      (List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names)
  in
  let battery_wall run =
    let w = ref infinity in
    for _ = 1 to 3 do
      let _, wi =
        time (fun () -> List.iter (fun fn -> ignore (run fn)) stubbed_fns)
      in
      w := Float.min !w wi
    done;
    !w
  in
  let stub_off = battery_wall (Check.Code_proof.run_function ctx) in
  let stub_on = battery_wall (Check.Code_proof.run_function_composed ctx) in

  (* per-function, the deepest call trees are where stubbing pays: the
     composed battery replaces the whole callee subtree with one
     contract evaluation.  Report the best per-function ratio (each
     side best of three) as the headline compositional win. *)
  let deepest_fn, deepest_ratio =
    List.fold_left
      (fun (bfn, bratio) fn ->
        let best run =
          let w = ref infinity in
          for _ = 1 to 3 do
            let _, wi = time (fun () -> ignore (run fn)) in
            w := Float.min !w wi
          done;
          !w
        in
        let mono = best (Check.Code_proof.run_function ctx) in
        let comp = best (Check.Code_proof.run_function_composed ctx) in
        let r = mono /. Float.max comp 1e-9 in
        if r > bratio then (fn, r) else (bfn, bratio))
      ("", 0.0) stubbed_fns
  in

  let open Engine.Jsonx in
  let json =
    Obj
      [
        ("bench", Str "engine");
        ("quick", Bool quick);
        ("seed", Int seed);
        ("obligations", Int (Engine.Dag.size dag));
        ("plan_build_s", Float build_s);
        ("cold_wall_s", Float cold);
        ("warm_wall_s", Float warm);
        ("warm_speedup", Float (cold /. Float.max warm 1e-9));
        ("cold_cache_hits", Int (hits cold_execs));
        ("warm_cache_hits", Int (hits warm_execs));
        ( "phase_walls",
          List
            (List.map
               (fun (p, w) -> Obj [ ("phase", Str p); ("busy_s", Float w) ])
               phase_walls) );
        ( "jobs_points",
          List
            (List.map
               (fun (jobs, wall, _) ->
                 Obj
                   [
                     ("jobs", Int jobs);
                     ("wall_s", Float wall);
                     ("speedup", Float (serial /. Float.max wall 1e-9));
                   ])
               jobs_points) );
        ("override_off_code_proof_s", Float ov_off);
        ("override_on_code_proof_s", Float ov_on);
        ("override_speedup", Float (ov_off /. Float.max ov_on 1e-9));
        ("override_stubbed_off_s", Float stub_off);
        ("override_stubbed_on_s", Float stub_on);
        ("override_stubbed_speedup", Float (stub_off /. Float.max stub_on 1e-9));
        ("override_deepest_fn", Str deepest_fn);
        ("override_deepest_speedup", Float deepest_ratio);
      ]
  in
  write_file !out (to_multiline_string json);
  print_string (to_multiline_string json)
