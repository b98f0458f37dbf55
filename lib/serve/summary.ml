(* Run-summary construction for [Driver.run], so a daemon response and
   a one-shot --json-out are produced by the same code — the serve CI
   gate diffs them byte for byte (after {!scrub}). *)

module Jsonx = Engine.Jsonx
module Report = Mirverif.Report

(* ------------------------------------------------------------------ *)
(* Exec helpers                                                        *)

let of_phase execs phase =
  List.filter
    (fun (e : Engine.Pool.exec) ->
      String.equal e.obligation.Engine.Obligation.phase phase)
    execs

let reports_of execs =
  List.concat_map
    (fun (e : Engine.Pool.exec) -> e.outcome.Engine.Obligation.reports)
    execs

let findings_of execs =
  List.concat_map
    (fun (e : Engine.Pool.exec) -> e.outcome.Engine.Obligation.findings)
    execs

(* All lint findings of the run — the four lint phases are the only
   ones that carry findings — with the discharge certificates applied:
   an [Info] certificate cancels the [Error] twin at the same site of
   the same function. *)
let lint_findings execs =
  let module M = Map.Make (String) in
  let by_fn =
    List.fold_left
      (fun m (fn, f) ->
        M.update fn (fun l -> Some (f :: Option.value ~default:[] l)) m)
      M.empty (findings_of execs)
  in
  M.bindings by_fn
  |> List.concat_map (fun (fn, fs) ->
         List.map
           (fun f -> (fn, f))
           (Analysis.Lint.reconcile (Analysis.Lint.sort (List.rev fs))))

let is_error (f : Analysis.Lint.finding) =
  f.Analysis.Lint.severity = Analysis.Lint.Error

let is_discharge (f : Analysis.Lint.finding) =
  f.Analysis.Lint.severity = Analysis.Lint.Info
  && f.Analysis.Lint.discharged_by <> None

let severity_to_string = function
  | Analysis.Lint.Error -> "error"
  | Analysis.Lint.Info -> "info"

(* Numeric program-point key: [where] strings are "bbN[M]" /
   "bbN[term]" / "bbN", and a plain string compare puts bb10 before
   bb2.  Parsing the block/statement indices makes the JSON order
   positional and byte-stable across cache states and timing. *)
let where_key w =
  match Scanf.sscanf_opt w "bb%d[%d]" (fun b s -> (b, s)) with
  | Some k -> k
  | None -> (
      match Scanf.sscanf_opt w "bb%d[term" (fun b -> (b, max_int)) with
      | Some k -> k
      | None -> (
          match Scanf.sscanf_opt w "bb%d" (fun b -> (b, -1)) with
          | Some k -> k
          | None -> (max_int, max_int)))

let lint_json_of findings =
  let sorted =
    List.sort
      (fun (fn1, (a : Analysis.Lint.finding)) (fn2, (b : Analysis.Lint.finding)) ->
        let c = String.compare fn1 fn2 in
        if c <> 0 then c
        else
          let c =
            compare (where_key a.Analysis.Lint.where) (where_key b.Analysis.Lint.where)
          in
          if c <> 0 then c
          else
            let c =
              String.compare
                (Analysis.Lint.to_string a.Analysis.Lint.kind)
                (Analysis.Lint.to_string b.Analysis.Lint.kind)
            in
            if c <> 0 then c
            else
              let c = String.compare a.Analysis.Lint.where b.Analysis.Lint.where in
              if c <> 0 then c
              else String.compare a.Analysis.Lint.detail b.Analysis.Lint.detail)
      findings
  in
  Jsonx.List
    (List.map
       (fun (fn, (f : Analysis.Lint.finding)) ->
         Jsonx.Obj
           [
             ("function", Jsonx.Str fn);
             ("kind", Str (Analysis.Lint.to_string f.Analysis.Lint.kind));
             ("where", Str f.Analysis.Lint.where);
             ("severity", Str (severity_to_string f.Analysis.Lint.severity));
             ( "discharged_by",
               match f.Analysis.Lint.discharged_by with
               | Some d -> Str d
               | None -> Null );
             ("detail", Str f.Analysis.Lint.detail);
           ])
       sorted)

(* ------------------------------------------------------------------ *)
(* Model-check rollup                                                  *)

(* The phase is one obligation, or none when the plan has no model
   check: the empty log rolls up to zeros. *)
let mc_rollup execs =
  Mc.Explore.rollup
    (Mc.Explore.parse_log
       (match of_phase execs "model-check" with
       | [ e ] -> e.outcome.Engine.Obligation.log
       | _ -> ""))

let model_check_json model_check execs =
  match model_check with
  | None -> Jsonx.Null
  | Some (req : Engine.Plan.mc_request) ->
      let r = mc_rollup execs in
      Jsonx.Obj
        [
          ("depth", Jsonx.Int req.Engine.Plan.mc_depth);
          ( "monitor",
            Str (if req.Engine.Plan.mc_flush then "correct" else "buggy-tlb") );
          ( "universe",
            Int (List.length (Mc.Universe.events req.Engine.Plan.mc_layout)) );
          ("states_explored", Int r.Mc.Explore.r_states);
          ("transitions", Int r.Mc.Explore.r_transitions);
          ("deduped", Int r.Mc.Explore.r_deduped);
          ( "min_witness",
            match Mc.Explore.min_witness r with Some n -> Int n | None -> Null );
          ( "violations",
            List
              (List.map
                 (fun (v : Mc.Explore.parsed_violation) ->
                   Jsonx.Obj
                     [
                       ("kind", Jsonx.Str v.Mc.Explore.p_kind);
                       ("state", Str v.Mc.Explore.p_state);
                       ("detail", Str v.Mc.Explore.p_detail);
                       ("shrink_evals", Int v.Mc.Explore.p_evals);
                       ( "witness",
                         List
                           (List.map
                              (fun ev -> Jsonx.Str ev)
                              v.Mc.Explore.p_witness) );
                     ])
                 r.Mc.Explore.r_violations) );
        ]

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

let count_cache execs status =
  List.length (List.filter (fun (e : Engine.Pool.exec) -> e.cache = status) execs)

let phase_summary execs phase =
  let es = of_phase execs phase in
  let executed = List.length es - count_cache es Engine.Pool.Hit in
  let wall =
    List.fold_left
      (fun acc (e : Engine.Pool.exec) -> acc +. (e.finished -. e.started))
      0.0 es
  in
  Jsonx.Obj
    [
      ("phase", Str phase);
      ("obligations", Int (List.length es));
      ("executed", Int executed);
      ("cache_hits", Int (count_cache es Engine.Pool.Hit));
      ("wall_s", Float wall);
    ]

let supervision_json (totals : Engine.Supervisor.totals) =
  Jsonx.Obj
    [
      ("supervised", Jsonx.Int totals.Engine.Supervisor.supervised);
      ("fell_back", Int totals.Engine.Supervisor.fell_back);
      ("quarantined", Int totals.Engine.Supervisor.quarantined);
      ("timeouts", Int totals.Engine.Supervisor.timeouts);
      ("crashes", Int totals.Engine.Supervisor.crashes);
    ]

let overrides_json (plan : Engine.Plan.t) =
  Jsonx.Obj
    [
      ( "stubbed_calls_total",
        Int
          (List.fold_left
             (fun n (_, c) -> n + c)
             0 plan.Engine.Plan.override_counts) );
      ( "per_function",
        List
          (List.map
             (fun (fn, c) ->
               Jsonx.Obj [ ("fn", Jsonx.Str fn); ("stubs", Int c) ])
             plan.Engine.Plan.override_counts) );
    ]

(* [?stats] and [?engine_chaos] are inert: [bench/e2e] still passes
   them (ROADMAP item 3). *)
let summary_json ~failures ?(jobs = 1) ~cache_enabled ~sup_totals ?stats:_
    ~cache_write_failures ?engine_chaos:_ ~model_check ~plan ~plan_build_s
    ~plan_cache_hit execs =
  if jobs <> 1 then invalid_arg "Summary.summary_json: jobs must be 1";
  let hits = count_cache execs Engine.Pool.Hit in
  let misses = count_cache execs Engine.Pool.Miss in
  let t, p, s, f =
    Engine.Obligation.case_totals
      (List.map (fun (e : Engine.Pool.exec) -> e.outcome) execs)
  in
  Jsonx.Obj
    [
      ("verdict", Str (if failures = 0 then "pass" else "fail"));
      ("failures", Int failures);
      ("jobs", Int jobs);
      ("obligations", Int (List.length execs));
      ("executed", Int (List.length execs - hits));
      ("cache_hits", Int hits);
      ("cache_misses", Int misses);
      ("cache", Str (if cache_enabled then "enabled" else "disabled"));
      ("cache_write_failures", Int cache_write_failures);
      ("plan_build_s", Float plan_build_s);
      ("plan_cache_hit", Bool plan_cache_hit);
      ("supervision", supervision_json sup_totals);
      ("model_check", model_check_json model_check execs);
      ("overrides", overrides_json plan);
      ("elapsed_s", Float (Engine.Pool.wall_of execs));
      ( "report_totals",
        Obj [ ("cases", Int t); ("passed", Int p); ("skipped", Int s); ("failed", Int f) ]
      );
      (* every phase, zero-obligation ones included: a jq gate keyed on
         a phase must find its counts (as zeros), never a missing entry
         that lets the gate vacuously pass *)
      ("phases", List (List.map (phase_summary execs) Engine.Plan.phases));
      ( "workers",
        List
          (List.map
             (fun (w, busy, n) ->
               Jsonx.Obj
                 [ ("worker", Int w); ("busy_s", Float busy); ("obligations", Int n) ])
             (Engine.Pool.worker_stats execs)) );
    ]

(* ------------------------------------------------------------------ *)
(* Scrubbed projection                                                 *)

(* The deterministic projection of a summary: every field whose value
   reflects the run rather than verification — the job count, cache
   statistics, wall clocks, worker utilization, supervision counters —
   is dropped, leaving only content that is byte-identical for the same
   request, daemon or one-shot, at any cache state.  The serve CI
   gate diffs daemon responses against one-shot --json-out through
   this projection (both sides via --scrub-summary); after scrubbing,
   the summary is float-free by construction, so a parse/re-emit round
   trip over the wire cannot perturb it. *)
let volatile_keys =
  [
    "jobs";
    "executed";
    "cache_hits";
    "cache_misses";
    "cache";
    "cache_write_failures";
    "plan_build_s";
    "plan_cache_hit";
    "supervision";
    "elapsed_s";
    "workers";
  ]

let scrub_phase = function
  | Jsonx.Obj kvs ->
      Jsonx.Obj
        (List.filter
           (fun (k, _) -> List.mem k [ "phase"; "obligations" ])
           kvs)
  | j -> j

let scrub = function
  | Jsonx.Obj kvs ->
      Jsonx.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k volatile_keys then None
             else if String.equal k "phases" then
               match v with
               | Jsonx.List ps -> Some (k, Jsonx.List (List.map scrub_phase ps))
               | j -> Some (k, j)
             else Some (k, v))
           kvs)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

(* Supervision detail appears in an obligation's trace line only when
   something happened (a fallback, quarantine): clean runs keep the
   historical line shape. *)
let trail_fields (trail : Engine.Supervisor.trail) =
  if not (Engine.Supervisor.eventful trail) then []
  else
    [
      ( "resolution",
        Jsonx.Str
          (Engine.Supervisor.resolution_to_string trail.Engine.Supervisor.resolution) );
      ( "attempts",
        Jsonx.List
          (match trail.Engine.Supervisor.attempt with
          | None -> []
          | Some status ->
              [
                Jsonx.Obj
                  [
                    ("n", Jsonx.Int 1);
                    ("status", Str (Engine.Supervisor.status_to_string status));
                  ];
              ]) );
    ]

let trace_json ~cache execs =
  let exec_lines =
    List.map
      (fun (e : Engine.Pool.exec) ->
        Jsonx.Obj
          ([
             ("id", Jsonx.Str e.obligation.Engine.Obligation.id);
             ("phase", Str e.obligation.Engine.Obligation.phase);
             ("cache", Str (Engine.Pool.cache_status_to_string e.cache));
             ("worker", Int e.worker);
             ("started_s", Float e.started);
             ("finished_s", Float e.finished);
             ("duration_s", Float (e.finished -. e.started));
             ("failures", Int (Engine.Obligation.failure_count e.outcome));
           ]
          @ trail_fields e.trail))
      execs
  in
  let failure_lines =
    match cache with
    | None -> []
    | Some c ->
        List.map
          (fun (op, msg) ->
            Jsonx.Obj
              [
                ("event", Jsonx.Str "cache-write-failure");
                ("op", Str op);
                ("error", Str msg);
              ])
          (Engine.Cache.write_failures c)
  in
  exec_lines @ failure_lines
