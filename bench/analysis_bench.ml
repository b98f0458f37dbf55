(* Abstract-interpretation benchmark: per-domain wall time over the
   SCC condensation of the compiled 15-layer stack, with finding /
   discharge counts, emitted as BENCH_analysis.json (consumed by CI as
   an artifact; see EXPERIMENTS.md).

   Run with: dune exec bench/analysis_bench.exe -- [--out FILE] [--print] *)

open Hyperenclave

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let out = ref "BENCH_analysis.json" in
  let print_findings = Array.exists (String.equal "--print") Sys.argv in
  Array.iteri
    (fun i a ->
      if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  let layout = Layout.default Geometry.tiny in
  let compiled, compile_s = time (fun () -> Layers.compiled layout) in
  let program = compiled.Rustlite.Pipeline.program in
  let cg, cg_s = time (fun () -> Analysis.Callgraph.build program) in
  let sccs = Analysis.Callgraph.sccs cg in
  let dump tag findings =
    if print_findings then
      List.iter
        (fun (fn, f) ->
          Printf.printf "%-12s %-24s %s\n" tag fn
            (Analysis.Lint.finding_to_string f))
        findings
  in

  (* interval domain: bounds findings + overflow discharges *)
  let interval, interval_s =
    time (fun () ->
        List.map
          (fun funcs -> Analysis.Interval_lint.check program ~funcs)
          sccs)
  in
  let itv_findings = List.concat_map fst interval in
  dump "interval" itv_findings;
  let itv_errors =
    List.fold_left
      (fun n (s : Analysis.Interval_lint.stats) -> n + s.findings)
      0 (List.map snd interval)
  and itv_discharged =
    List.fold_left
      (fun n (s : Analysis.Interval_lint.stats) -> n + s.discharged)
      0 (List.map snd interval)
  and itv_iters =
    List.fold_left
      (fun n (s : Analysis.Interval_lint.stats) -> n + s.iterations)
      0 (List.map snd interval)
  in

  (* taint domain: secret-flow findings *)
  let cfg = Security.Labels.secret_flow_config layout program in
  let taint, taint_s =
    time (fun () ->
        List.map (fun funcs -> Analysis.Secret_flow.check cfg ~funcs) sccs)
  in
  let sf_findings = List.concat_map fst taint in
  dump "secret-flow" sf_findings;
  let sf_count =
    List.fold_left
      (fun n (s : Analysis.Secret_flow.stats) -> n + s.findings)
      0 (List.map snd taint)
  and sf_iters =
    List.fold_left
      (fun n (s : Analysis.Secret_flow.stats) -> n + s.iterations)
      0 (List.map snd taint)
  and sf_summaries =
    List.fold_left
      (fun n (s : Analysis.Secret_flow.stats) -> n + s.summaries)
      0 (List.map snd taint)
  in

  (* borrow checking: per-function loans + findings *)
  let borrow, borrow_s =
    time (fun () ->
        Mir.Syntax.fold_bodies
          (fun fn body acc ->
            let _, findings, stats = Analysis.Borrow_lint.check ~name:fn body in
            (fn, findings, stats) :: acc)
          program [])
  in
  dump "borrow"
    (List.concat_map
       (fun (fn, fs, _) -> List.map (fun f -> (fn, f)) fs)
       borrow);
  let bw_loans =
    List.fold_left
      (fun n (_, _, (s : Analysis.Borrow_lint.stats)) -> n + s.loans)
      0 borrow
  and bw_findings =
    List.fold_left (fun n (_, fs, _) -> n + List.length fs) 0 borrow
  in

  (* alias analysis: whole-program Andersen footprints + the per-SCC
     aliased-frame lint, with the same trusted-primitive model the
     engine uses *)
  let trusted =
    List.map
      (fun (s : Absdata.t Mirverif.Spec.t) -> s.Mirverif.Spec.name)
      Trusted.all
  in
  let alias_cfg =
    {
      Analysis.Alias_lint.program;
      prim = Check.Code_proof.prim_summary;
      fn_layer = Layers.layer_of_function layout;
      accessor =
        (fun ~owner ~callee ->
          List.mem callee trusted
          || Layers.layer_of_function layout callee = Some owner);
    }
  in
  (* the summaries are computed once, as the engine does, inside the
     timed section so that [alias_wall_s] is the phase's whole cost *)
  let alias, alias_s =
    time (fun () ->
        let infos = Analysis.Alias.analyze ~prim:alias_cfg.prim program in
        List.map
          (fun funcs -> Analysis.Alias_lint.check alias_cfg ~infos ~funcs)
          sccs)
  in
  dump "alias" (List.concat_map fst alias);
  let al_exact =
    List.fold_left
      (fun n (s : Analysis.Alias_lint.stats) -> n + s.footprints)
      0 (List.map snd alias)
  and al_findings =
    List.fold_left
      (fun n (s : Analysis.Alias_lint.stats) -> n + s.findings)
      0 (List.map snd alias)
  and al_discharged =
    List.fold_left
      (fun n (s : Analysis.Alias_lint.stats) -> n + s.discharged)
      0 (List.map snd alias)
  in

  let functions =
    List.fold_left (fun n scc -> n + List.length scc) 0 sccs
  in
  let open Engine.Jsonx in
  let json =
    Obj
      [
        ("bench", Str "analysis");
        ("functions", Int functions);
        ("sccs", Int (List.length sccs));
        ("compile_s", Float compile_s);
        ("callgraph_s", Float cg_s);
        ( "interval",
          Obj
            [
              ("wall_s", Float interval_s);
              ("findings", Int itv_errors);
              ("discharged", Int itv_discharged);
              ("iterations", Int itv_iters);
            ] );
        ( "secret_flow",
          Obj
            [
              ("wall_s", Float taint_s);
              ("findings", Int sf_count);
              ("iterations", Int sf_iters);
              ("summaries", Int sf_summaries);
            ] );
        ( "borrow",
          Obj
            [
              ("wall_s", Float borrow_s);
              ("loans", Int bw_loans);
              ("findings", Int bw_findings);
            ] );
        ( "alias",
          Obj
            [
              ("wall_s", Float alias_s);
              ("exact_footprints", Int al_exact);
              ("findings", Int al_findings);
              ("discharged", Int al_discharged);
            ] );
      ]
  in
  write_file !out (to_multiline_string json);
  print_string (to_multiline_string json)
