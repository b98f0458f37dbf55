(* Phase rendering, shared by the one-shot CLI (std_formatter) and the
   serve daemon (buffer formatter): both produce the exact bytes the
   sequential pass always printed, so a daemon response's [stdout]
   field diffs clean against the CLI.  Stdout carries only verification
   content — no job counts, timings or cache statistics — so the text
   is byte-identical at any job count, cache state or fleet size. *)

module Report = Mirverif.Report

let phase_header ppf name = Format.fprintf ppf "@.=== %s ===@." name

let check_reports ppf ~failures reports =
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s@." (Report.to_string r);
      if not (Report.ok r) then incr failures)
    reports

(* Phases 1-2: compile the module, assemble and check the stack. *)
let prelude ppf ~failures layout =
  phase_header ppf "1. mirlightgen (Rustlite -> MIRlight)";
  let out = Hyperenclave.Layers.compiled layout in
  Format.fprintf ppf "  functions: %d, source lines: %d, mirlight lines: %d@."
    (List.length out.Rustlite.Pipeline.function_names)
    out.Rustlite.Pipeline.source_lines out.Rustlite.Pipeline.mir_lines;

  phase_header ppf "2. layer stack";
  let issues = Hyperenclave.Layers.stratification_ok layout in
  Format.fprintf ppf "  %d layers, stratification issues: %d@."
    Hyperenclave.Layers.layer_count (List.length issues);
  List.iter
    (fun i -> Format.fprintf ppf "  %a@." Mirverif.Layer.pp_stratification_issue i)
    issues;
  if issues <> [] then incr failures

let layer_of_code_proof_id id =
  match String.split_on_char '/' id with _ :: layer :: _ -> layer | _ -> "?"

(* Print the per-phase sections exactly as the sequential pass did,
   from the execs (which arrive in DAG insertion order, independent of
   scheduling). *)
let engine_results ppf ~failures ~security execs =
  let of_phase = Summary.of_phase in
  phase_header ppf "3. static analysis (MIRlight dataflow lints)";
  let an = of_phase execs "analysis" in
  let findings = Summary.lint_findings execs in
  let body_errors =
    List.filter
      (fun (_, (f : Analysis.Lint.finding)) ->
        Summary.is_error f && List.mem f.Analysis.Lint.kind Analysis.Lint.all)
      findings
  in
  let at, ap, _, _ =
    Engine.Obligation.case_totals
      (List.map (fun (e : Engine.Pool.exec) -> e.outcome) an)
  in
  Format.fprintf ppf "  %d functions, %d lint checks: %d passed, %d findings@."
    (List.length an) at ap (List.length body_errors);
  (* a per-body failure without a finding is an engine-level problem
     (e.g. a layer listing a function with no MIRlight body) *)
  List.iter
    (fun (e : Engine.Pool.exec) ->
      if e.outcome.Engine.Obligation.findings = [] then
        List.iter
          (fun r ->
            if not (Report.ok r) then begin
              incr failures;
              Format.fprintf ppf "  FAIL [%s] %s@."
                (layer_of_code_proof_id e.obligation.Engine.Obligation.id)
                (Report.to_string r)
            end)
          e.outcome.Engine.Obligation.reports)
    an;
  List.iter
    (fun (fn, f) ->
      incr failures;
      Format.fprintf ppf "  FAIL [%s] %s@." fn (Analysis.Lint.finding_to_string f))
    body_errors;

  phase_header ppf "3b. abstract interpretation (interval bounds + secret flow)";
  let ab = of_phase execs "absint" in
  let absint_errors =
    List.filter
      (fun (_, (f : Analysis.Lint.finding)) ->
        Summary.is_error f
        && List.mem f.Analysis.Lint.kind Analysis.Lint.interprocedural)
      findings
  in
  let count kind =
    List.length
      (List.filter
         (fun (_, (f : Analysis.Lint.finding)) -> f.Analysis.Lint.kind = kind)
         absint_errors)
  in
  Format.fprintf ppf
    "  %d SCC obligations: %d secret-flow findings, %d interval findings, %d \
     arith sites discharged@."
    (List.length ab)
    (count Analysis.Lint.Secret_flow)
    (count Analysis.Lint.Interval_bounds)
    (List.length
       (List.filter
          (fun (_, (f : Analysis.Lint.finding)) ->
            Summary.is_discharge f
            && f.Analysis.Lint.discharged_by
               = Some (Analysis.Lint.to_string Analysis.Lint.Interval_bounds))
          findings));
  List.iter
    (fun (fn, f) ->
      incr failures;
      Format.fprintf ppf "  FAIL [%s] %s@." fn (Analysis.Lint.finding_to_string f))
    absint_errors;

  phase_header ppf "3c. borrow checking (NLL liveness regions + loan dataflow)";
  let bw = of_phase execs "borrow" in
  let borrow_errors =
    List.filter
      (fun (_, (f : Analysis.Lint.finding)) ->
        Summary.is_error f && List.mem f.Analysis.Lint.kind Analysis.Lint.borrow)
      findings
  in
  let bt, bp, _, _ =
    Engine.Obligation.case_totals
      (List.map (fun (e : Engine.Pool.exec) -> e.outcome) bw)
  in
  Format.fprintf ppf "  %d functions, %d borrow checks: %d passed, %d findings@."
    (List.length bw) bt bp (List.length borrow_errors);
  List.iter
    (fun (fn, f) ->
      incr failures;
      Format.fprintf ppf "  FAIL [%s] %s@." fn (Analysis.Lint.finding_to_string f))
    borrow_errors;

  phase_header ppf "3d. alias analysis (Andersen points-to footprints)";
  let al = of_phase execs "alias" in
  let alias_errors =
    List.filter
      (fun (_, (f : Analysis.Lint.finding)) ->
        Summary.is_error f && List.mem f.Analysis.Lint.kind Analysis.Lint.alias)
      findings
  in
  Format.fprintf ppf "  %d SCC obligations: %d alias findings, %d warnings discharged@."
    (List.length al)
    (List.length alias_errors)
    (List.length
       (List.filter
          (fun (_, (f : Analysis.Lint.finding)) ->
            f.Analysis.Lint.discharged_by
            = Some (Analysis.Lint.to_string Analysis.Lint.Alias_footprint))
          findings));
  List.iter
    (fun (fn, f) ->
      incr failures;
      Format.fprintf ppf "  FAIL [%s] %s@." fn (Analysis.Lint.finding_to_string f))
    alias_errors;

  phase_header ppf "4. code proofs (code conforms to low specs)";
  let cp = of_phase execs "code-proofs" in
  let t, p, s, f =
    Engine.Obligation.case_totals
      (List.map (fun (e : Engine.Pool.exec) -> e.outcome) cp)
  in
  Format.fprintf ppf "  %d functions, %d cases: %d passed, %d skipped, %d failed@."
    (List.length cp) t p s f;
  List.iter
    (fun (e : Engine.Pool.exec) ->
      List.iter
        (fun r ->
          if not (Report.ok r) then begin
            incr failures;
            Format.fprintf ppf "  FAIL [%s] %s@."
              (layer_of_code_proof_id e.obligation.Engine.Obligation.id)
              (Report.to_string r)
          end)
        e.outcome.Engine.Obligation.reports)
    cp;

  phase_header ppf "5. page-table refinement (flat <-> tree, Sec. 4.1)";
  check_reports ppf ~failures
    (Report.merge_by_name (Summary.reports_of (of_phase execs "refinement")));

  if security then begin
    phase_header ppf "6. invariants (Sec. 5.2) on reachable states";
    check_reports ppf ~failures
      (Report.merge_by_name (Summary.reports_of (of_phase execs "invariants")));

    phase_header ppf "7. noninterference (Lemmas 5.2-5.4, Sec. 5.3)";
    check_reports ppf ~failures (Summary.reports_of (of_phase execs "noninterference"));

    phase_header ppf "8. trace noninterference (Theorem 5.1)";
    check_reports ppf ~failures (Summary.reports_of (of_phase execs "trace-ni"));

    phase_header ppf "9. attack scenarios (Fig. 5 + Sec. 4.1 shallow copy)";
    List.iter
      (fun (e : Engine.Pool.exec) ->
        Format.fprintf ppf "  %s@." e.outcome.Engine.Obligation.log;
        if Engine.Obligation.failure_count e.outcome > 0 then incr failures)
      (of_phase execs "attacks")
  end

let model_check ppf ~failures (req : Engine.Plan.mc_request) execs =
  phase_header ppf "11. model checking (exhaustive bounded interleavings)";
  let r = Summary.mc_rollup execs in
  Format.fprintf ppf "  monitor: %s@."
    (if req.Engine.Plan.mc_flush then "correct"
     else "buggy (unmap does not flush the TLB)");
  Format.fprintf ppf
    "  depth %d, %d-event universe, reduction %s: %d states, %d transitions, \
     %d deduped, %d pruned@."
    req.Engine.Plan.mc_depth
    (List.length (Mc.Universe.events req.Engine.Plan.mc_layout))
    (if req.Engine.Plan.mc_por then "on" else "off")
    r.Mc.Explore.r_states r.Mc.Explore.r_transitions r.Mc.Explore.r_deduped
    r.Mc.Explore.r_pruned;
  List.iter
    (fun (v : Mc.Explore.parsed_violation) ->
      Format.fprintf ppf "  VIOLATION %s at state %s: %s@." v.Mc.Explore.p_kind
        v.Mc.Explore.p_state v.Mc.Explore.p_detail;
      Format.fprintf ppf "    witness (%d events, ddmin spent %d replays):@."
        (List.length v.Mc.Explore.p_witness)
        v.Mc.Explore.p_evals;
      List.iter (Format.fprintf ppf "      %s@.") v.Mc.Explore.p_witness)
    r.Mc.Explore.r_violations;
  match (r.Mc.Explore.r_violations, req.Engine.Plan.mc_flush) with
  | [], true ->
      Format.fprintf ppf
        "  no violations: every reachable state satisfies the invariants, TLB \
         consistency and step-indistinguishability@."
  | [], false ->
      incr failures;
      Format.fprintf ppf
        "  UNEXPECTED: the buggy monitor survived exhaustive exploration@."
  | vs, flush ->
      if flush then incr failures
      else if
        List.for_all
          (fun (v : Mc.Explore.parsed_violation) ->
            String.equal v.Mc.Explore.p_kind "tlb-consistency")
          vs
      then
        Format.fprintf ppf
          "  rediscovered the planted stale-TLB bug exhaustively (minimal \
           witness: %d events)@."
          (Option.value ~default:0 (Mc.Explore.min_witness r))
      else begin
        incr failures;
        Format.fprintf ppf
          "  UNEXPECTED: violations beyond the planted TLB-consistency bug@."
      end

let verdict ppf failures =
  Format.fprintf ppf "@.%s@."
    (if failures = 0 then "VERIFICATION PASS: all checks succeeded"
     else Printf.sprintf "VERIFICATION FAILED: %d phase(s) reported failures" failures)
