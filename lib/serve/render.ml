(* Phase rendering for [Driver.run], the one run path of the one-shot
   CLI and the serve daemon: the exact bytes the sequential pass always
   printed, written to a buffer after the pool has run.  Stdout carries
   only verification content — no timings or cache statistics — so the
   text is byte-identical at any cache state, daemon or one-shot. *)

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

(* One [FAIL [tag] text] line per failure, each counted. *)
let fail_lines ppf ~failures lines =
  List.iter
    (fun (tag, text) ->
      incr failures;
      Format.fprintf ppf "  FAIL [%s] %s@." tag text)
    lines

(* The failing reports of [execs], tagged with the layer their id
   names ([<phase>/<layer>/<fn>]). *)
let report_failures execs =
  List.concat_map
    (fun (e : Engine.Pool.exec) ->
      let layer =
        match String.split_on_char '/' e.obligation.Engine.Obligation.id with
        | _ :: layer :: _ -> layer
        | _ -> "?"
      in
      List.filter_map
        (fun r -> if Report.ok r then None else Some (layer, Report.to_string r))
        e.outcome.Engine.Obligation.reports)
    execs

let finding_failures errors =
  List.map (fun (fn, f) -> (fn, Analysis.Lint.finding_to_string f)) errors

(* The run's error findings of the given lint kinds. *)
let errors_of kinds findings =
  List.filter
    (fun (_, (f : Analysis.Lint.finding)) ->
      Summary.is_error f && List.mem f.Analysis.Lint.kind kinds)
    findings

(* The run's discharge certificates issued by the [kind] analysis
   (every certificate is an [Info] finding). *)
let discharged_by kind findings =
  List.length
    (List.filter
       (fun (_, (f : Analysis.Lint.finding)) ->
         Summary.is_discharge f
         && f.Analysis.Lint.discharged_by = Some (Analysis.Lint.to_string kind))
       findings)

let case_totals execs =
  Engine.Obligation.case_totals (List.map (fun (e : Engine.Pool.exec) -> e.outcome) execs)

(* Print the per-phase sections exactly as the sequential pass did,
   from the execs (which arrive in DAG insertion order, independent of
   scheduling). *)
let engine_results ppf ~failures ~security execs =
  let of_phase = Summary.of_phase in
  let findings = Summary.lint_findings execs in
  phase_header ppf "3. static analysis (MIRlight dataflow lints)";
  let an = of_phase execs "analysis" in
  let body_errors = errors_of Analysis.Lint.all findings in
  let at, ap, _, _ = case_totals an in
  Format.fprintf ppf "  %d functions, %d lint checks: %d passed, %d findings@."
    (List.length an) at ap (List.length body_errors);
  (* a per-body failure without a finding is an engine-level problem
     (e.g. a layer listing a function with no MIRlight body) *)
  fail_lines ppf ~failures
    (report_failures
       (List.filter
          (fun (e : Engine.Pool.exec) -> e.outcome.Engine.Obligation.findings = [])
          an)
    @ finding_failures body_errors);

  phase_header ppf "3b. abstract interpretation (interval bounds + secret flow)";
  let absint_errors = errors_of Analysis.Lint.interprocedural findings in
  let count kind =
    List.length
      (List.filter
         (fun (_, (f : Analysis.Lint.finding)) -> f.Analysis.Lint.kind = kind)
         absint_errors)
  in
  Format.fprintf ppf
    "  %d SCC obligations: %d secret-flow findings, %d interval findings, %d \
     arith sites discharged@."
    (List.length (of_phase execs "absint"))
    (count Analysis.Lint.Secret_flow)
    (count Analysis.Lint.Interval_bounds)
    (discharged_by Analysis.Lint.Interval_bounds findings);
  fail_lines ppf ~failures (finding_failures absint_errors);

  phase_header ppf "3c. borrow checking (NLL liveness regions + loan dataflow)";
  let bw = of_phase execs "borrow" in
  let borrow_errors = errors_of Analysis.Lint.borrow findings in
  let bt, bp, _, _ = case_totals bw in
  Format.fprintf ppf "  %d functions, %d borrow checks: %d passed, %d findings@."
    (List.length bw) bt bp (List.length borrow_errors);
  fail_lines ppf ~failures (finding_failures borrow_errors);

  phase_header ppf "3d. alias analysis (Andersen points-to footprints)";
  let alias_errors = errors_of Analysis.Lint.alias findings in
  Format.fprintf ppf "  %d SCC obligations: %d alias findings, %d warnings discharged@."
    (List.length (of_phase execs "alias"))
    (List.length alias_errors)
    (discharged_by Analysis.Lint.Alias_footprint findings);
  fail_lines ppf ~failures (finding_failures alias_errors);

  phase_header ppf "4. code proofs (code conforms to low specs)";
  let cp = of_phase execs "code-proofs" in
  let t, p, s, f = case_totals cp in
  Format.fprintf ppf "  %d functions, %d cases: %d passed, %d skipped, %d failed@."
    (List.length cp) t p s f;
  fail_lines ppf ~failures (report_failures cp);

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
    "  depth %d, %d-event universe: %d states, %d transitions, %d deduped@."
    req.Engine.Plan.mc_depth
    (List.length (Mc.Universe.events req.Engine.Plan.mc_layout))
    r.Mc.Explore.r_states r.Mc.Explore.r_transitions r.Mc.Explore.r_deduped;
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
