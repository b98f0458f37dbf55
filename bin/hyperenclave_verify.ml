(* hyperenclave-verify: run the full verification pass.

   Phases, mirroring the paper's structure:
     1. mirlightgen  — compile the memory module to MIRlight
     2. layering     — assemble the 15-layer stack, check stratification
     3. analysis     — MIRlight dataflow lints (lib/analysis), selected
                       with --lints
     4. code-proofs  — per-function conformance (Sec. 4.3)
     5. refinement   — flat/tree page-table simulation (Sec. 4.1)
     6. invariants   — Sec. 5.2 invariants on reachable states
     7. noninterference — Lemmas 5.2-5.4 (Sec. 5.3)
     8. trace noninterference — Theorem 5.1
     9. attacks      — Fig. 5 scenarios must be rejected
    10. chaos        — opt-in (--chaos): fault-injected traces with
                       transactionality, invariant and TLB-consistency
                       checks, plus MIRlight-level primitive faults
    11. model check  — opt-in (--model-check DEPTH): exhaustive bounded
                       exploration of every event interleaving (lib/mc),
                       one obligation visiting each state once, with
                       partial-order reduction (--mc-por/--no-mc-por)

   Phases 3-9 and 11 are reified as an obligation DAG (lib/engine) and run on
   a Domain worker pool (--jobs), optionally against a
   content-addressed proof cache (--cache DIR).  Stdout carries only
   verification content — no job counts, timings or cache statistics —
   so the output is byte-identical at any job count and cache state;
   scheduling metadata goes to stderr, --json-out and --trace-out.

   The flags build one [Serve.Driver.request].  A one-shot run hands it
   to [Serve.Driver.run], the same function that answers the --serve
   daemon's requests, so a daemon response equals a one-shot run by
   construction.  What stays here is the CLI's own: the --chaos phase
   (passed to the driver as a printer), the --engine-chaos handle, the
   stderr engine lines and the --json-out, --trace-out and --lint-json
   writers.

   Serving (lib/serve): --serve SOCKET runs the long-lived daemon — a
   dispatcher handing one request at a time to each of --fleet N forked
   workers, which replay repeated responses and share a proof cache;
   --client SOCKET submits the flag-selected request to a
   running daemon and renders the response exactly like a local run. *)

open Cmdliner
module Report = Mirverif.Report

(* Phase 10 (opt-in): chaos.  On the correct monitor the phase passes
   when [traces] fault-injected traces survive every per-step check; on
   the --buggy-tlb monitor it passes when the planted stale-TLB bug is
   found and shrunk to a minimal witness.  Stays sequential: its value
   is the shrinking loop, not throughput. *)
let run_chaos ppf ~failures ~quick ~seed ~traces ~kinds ~buggy_tlb layout =
  let traces = if quick then min traces 1_000 else traces in
  let flush = not buggy_tlb in
  Format.fprintf ppf "  monitor: %s@.  fault kinds: %s@."
    (if buggy_tlb then "buggy (unmap does not flush the TLB)" else "correct")
    (String.concat ", " (List.map Fault.Plan.kind_to_string kinds));
  let stats, cx = Fault.Chaos.run ~flush ~faults:kinds ~seed ~traces layout in
  Format.fprintf ppf
    "  %d traces, %d events, %d faults applied (%d inapplicable), %d disabled actions@."
    stats.Fault.Chaos.traces stats.Fault.Chaos.events stats.Fault.Chaos.faults
    stats.Fault.Chaos.fault_skips stats.Fault.Chaos.disabled_steps;
  (match (cx, buggy_tlb) with
  | None, false ->
      Format.fprintf ppf
        "  no violations: transactionality, invariants and TLB consistency hold@."
  | Some cx, false ->
      incr failures;
      Format.fprintf ppf "  COUNTEREXAMPLE:@.%a@." Fault.Chaos.pp_counterexample cx
  | Some cx, true ->
      Format.fprintf ppf "  found and shrunk the planted stale-TLB bug:@.%a@."
        Fault.Chaos.pp_counterexample cx;
      if not (String.equal cx.Fault.Chaos.cx_failure.Fault.Chaos.check "tlb-consistency")
      then begin
        incr failures;
        Format.fprintf ppf "  UNEXPECTED: the failure is not a TLB-consistency violation@."
      end
  | None, true ->
      incr failures;
      Format.fprintf ppf "  UNEXPECTED: the buggy monitor survived all %d traces@."
        stats.Fault.Chaos.traces);
  let mreport, outcomes = Fault.Mir_chaos.run ~seed layout in
  Format.fprintf ppf "  %s@." (Report.to_string mreport);
  List.iter
    (fun o ->
      Format.fprintf ppf "    %-16s %3d primitive calls, %3d perturbed executions@."
        o.Fault.Mir_chaos.target o.Fault.Mir_chaos.prim_calls
        o.Fault.Mir_chaos.injections)
    outcomes;
  if not (Report.ok mreport) then incr failures

let chaos_phase ~quick ~seed ~traces ~kinds ~buggy_tlb (req : Serve.Driver.request)
    ppf ~failures =
  Serve.Render.phase_header ppf "10. chaos (fault injection, transactionality, shrinking)";
  if req.Serve.Driver.geometry = "x86_64" then
    Format.fprintf ppf
      "  skipped: the chaos checks enumerate page contents; use --geometry tiny@."
  else
    run_chaos ppf ~failures ~quick ~seed ~traces ~kinds ~buggy_tlb
      (Serve.Driver.layout_of_geometry req.Serve.Driver.geometry)

(* ------------------------------------------------------------------ *)
(* Serve / client modes                                                *)

let run_serve ~socket ~fleet ~cache_dir ~jobs ~retries ~timeout_ms =
  if fleet < 1 then begin
    Format.eprintf "hyperenclave-verify: --fleet must be at least 1 (got %d)@." fleet;
    2
  end
  else
    let cfg =
      {
        (Serve.Server.default_config ~socket) with
        Serve.Server.fleet;
        cache_dir;
        jobs;
        retries;
        timeout_ms;
      }
    in
    match Serve.Server.serve cfg with
    | () -> 0
    | exception Failure msg ->
        (* e.g. a daemon already listening on the requested socket *)
        Format.eprintf "hyperenclave-verify: %s@." msg;
        2

let write_summary ~scrub_summary path summary =
  let summary = if scrub_summary then Serve.Summary.scrub summary else summary in
  Engine.Jsonx.write_file path (Engine.Jsonx.to_multiline_string summary)

let run_client ~socket ~scrub_summary ~json_out (req : Serve.Driver.request) =
  let module Jsonx = Engine.Jsonx in
  match Serve.Client.request_json ~socket (Serve.Driver.json_of_request req) with
  | Error msg ->
      Format.eprintf "hyperenclave-verify: %s@." msg;
      2
  | Ok resp -> (
      match Jsonx.member "ok" resp with
      | Some (Jsonx.Bool true) ->
          Option.iter print_string
            (Option.bind (Jsonx.member "stdout" resp) Jsonx.to_string_opt);
          flush stdout;
          Option.iter
            (fun path ->
              Option.iter (write_summary ~scrub_summary path) (Jsonx.member "summary" resp))
            json_out;
          Option.value ~default:1
            (Option.bind (Jsonx.member "status" resp) Jsonx.to_int_opt)
      | _ ->
          let err =
            Option.value ~default:"malformed response"
              (Option.bind (Jsonx.member "error" resp) Jsonx.to_string_opt)
          in
          Format.eprintf "hyperenclave-verify: daemon error: %s@." err;
          2)

(* ------------------------------------------------------------------ *)
(* One-shot mode                                                       *)

(* The driver's run, then what only the CLI writes: the stderr engine
   lines (scheduling metadata: never on stdout, so runs diff clean) and
   the --json-out, --trace-out and --lint-json files. *)
let run_local (session : Serve.Driver.session) ?chaos ?engine_chaos ~json_out
    ~trace_out ~lint_json ~scrub_summary req =
  let (r : Serve.Driver.run_result) =
    Serve.Driver.run ?chaos ?engine_chaos session (Serve.Driver.prepare req)
  in
  print_string r.stdout;
  let execs = r.execs and stats = r.stats in
  let count_cache = Serve.Summary.count_cache in
  Format.eprintf "engine: %d obligations, jobs=%d, cache %s, %d hits, %d misses, %.3fs@."
    (List.length execs) session.jobs
    (if session.cache = None then "off" else "on")
    (count_cache execs Engine.Pool.Hit)
    (count_cache execs Engine.Pool.Miss)
    (Engine.Pool.wall_of execs);
  let sup_totals =
    Engine.Supervisor.totals (List.map (fun (e : Engine.Pool.exec) -> e.trail) execs)
  in
  if
    sup_totals.Engine.Supervisor.supervised > 0
    || stats.Engine.Pool.respawns > 0 || stats.Engine.Pool.lost_workers > 0
  then
    Format.eprintf
      "engine supervision: %d supervised (%d retried, %d recovered, %d fell back, \
       %d quarantined), %d crashes, %d timeouts, %d respawns, %d workers lost@."
      sup_totals.Engine.Supervisor.supervised sup_totals.Engine.Supervisor.retried
      sup_totals.Engine.Supervisor.recovered sup_totals.Engine.Supervisor.fell_back
      sup_totals.Engine.Supervisor.quarantined sup_totals.Engine.Supervisor.crashes
      sup_totals.Engine.Supervisor.timeouts stats.Engine.Pool.respawns
      stats.Engine.Pool.lost_workers;
  let cache_write_failures =
    match session.cache with None -> 0 | Some c -> Engine.Cache.write_failure_count c
  in
  if cache_write_failures > 0 then
    Format.eprintf "engine cache: %d write failure(s) — see --trace-out@."
      cache_write_failures;
  Option.iter
    (fun ch ->
      Format.eprintf "engine chaos: seed=%d, injected %d (%s)@."
        (Engine.Engine_chaos.seed ch)
        (Engine.Engine_chaos.injected_total ch)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" (Fault.Plan.engine_kind_to_string k) n)
              (Engine.Engine_chaos.injected ch))))
    engine_chaos;
  Option.iter (fun path -> write_summary ~scrub_summary path (Lazy.force r.summary)) json_out;
  Option.iter
    (fun path ->
      Engine.Jsonx.write_lines path (Serve.Summary.trace_json ~cache:session.cache execs))
    trace_out;
  Option.iter
    (fun path ->
      Engine.Jsonx.write_file path
        (Engine.Jsonx.to_multiline_string
           (Serve.Summary.lint_json_of (Serve.Summary.lint_findings execs))))
    lint_json;
  if r.failures = 0 then 0 else 1

(* ------------------------------------------------------------------ *)

let run geometry seed quick jobs cache_dir json_out trace_out lint_json chaos
    chaos_traces faults buggy_tlb lints timeout_ms retries engine_chaos_seed
    engine_faults mc_depth mc_geometry mc_por serve_socket client_socket fleet
    scrub_summary =
  let req =
    {
      Serve.Driver.geometry;
      seed;
      quick;
      lints;
      mc =
        Option.map
          (fun depth ->
            {
              Serve.Driver.mc_depth = depth;
              mc_por;
              mc_geometry;
              mc_buggy_tlb = buggy_tlb;
            })
          mc_depth;
      source_digest = None;
    }
  in
  match (serve_socket, client_socket) with
  | Some socket, _ -> run_serve ~socket ~fleet ~cache_dir ~jobs ~retries ~timeout_ms
  | None, Some socket ->
      if chaos || engine_chaos_seed <> None then begin
        Format.eprintf
          "hyperenclave-verify: --chaos / --engine-chaos are not served over \
           the wire (run them one-shot)@.";
        2
      end
      else run_client ~socket ~scrub_summary ~json_out req
  | None, None ->
      let session = Serve.Driver.session ?cache_dir ~jobs ~retries ~timeout_ms () in
      let chaos =
        if chaos then
          Some
            (chaos_phase ~quick ~seed ~traces:chaos_traces ~kinds:faults ~buggy_tlb req)
        else None
      in
      let engine_chaos =
        Option.map
          (fun cseed -> Engine.Engine_chaos.create ~kinds:engine_faults ~seed:cseed ())
          engine_chaos_seed
      in
      run_local session ?chaos ?engine_chaos ~json_out ~trace_out ~lint_json
        ~scrub_summary req

let geometry =
  Arg.(
    value
    & opt (enum [ ("tiny", "tiny"); ("x86_64", "x86_64") ]) "tiny"
    & info [ "geometry" ] ~docv:"GEOM" ~doc:"Page-table geometry: $(b,tiny) or $(b,x86_64).")

let seed = Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller state budgets.")

(* A count below its minimum is a usage error naming the flag, before
   any phase runs: zero chaos traces would pass vacuously, a zero depth
   or job count would silently run as 1, and a negative deadline or
   retry count would silently run as none. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be at least %d (got %d)" min n))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

let jobs =
  Arg.(
    value
    & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the obligation pool, at least 1; the pool never \
           runs more domains than the hardware has cores.  Results are \
           byte-identical at any N.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed proof cache directory.  Warm runs replay unchanged \
           obligations from the cache instead of re-executing them.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:"Write a machine-readable run summary (verdict, cache and worker stats).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSONL trace: one line per obligation with timing and cache status.")

let lint_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "lint-json" ] ~docv:"FILE"
        ~doc:
          "Write the reconciled lint findings (per-body dataflow plus \
           abstract-interpretation kinds) as a JSON list: kind, function, \
           program point, severity, discharged-by.")

let chaos =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:"Also run the fault-injection chaos phase (see lib/fault).")

let chaos_traces =
  Arg.(
    value & opt positive_int 10_000
    & info [ "chaos-traces" ] ~docv:"N"
        ~doc:
          "Randomized traces the chaos phase replays, at least 1 (--quick caps \
           at 1000).")

(* Parse-time validation, like --geometry's enum: an unknown name or
   group selector is a usage error before any phase runs, not a
   silently-empty selection.  [print] renders the default in --help. *)
let kinds_conv parse print =
  Arg.conv ((fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)), fun fmt ks ->
            Format.pp_print_string fmt (print ks))

let fault_kinds ~what ~all ~to_string =
  kinds_conv
    (Fault.Plan.kinds_of_string ~what ~all ~to_string)
    (fun ks -> if ks = all then "all" else String.concat "," (List.map to_string ks))

let faults =
  Arg.(
    value
    & opt
        (fault_kinds ~what:"fault kind" ~all:Fault.Plan.all_kinds
           ~to_string:Fault.Plan.kind_to_string)
        Fault.Plan.all_kinds
    & info [ "faults" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated fault kinds to inject: exhaustion, pt-bitflip, \
           bitmap-bitflip, epcm, oracle, tlb, truncation — or 'all'.")

let buggy_tlb =
  Arg.(
    value & flag
    & info [ "buggy-tlb" ]
        ~doc:
          "Chaos the deliberately buggy monitor that skips the TLB flush on \
           unmap; the phase then passes only if the stale-TLB bug is found \
           and shrunk to a minimal witness.")

let lints =
  let lints_conv =
    kinds_conv Analysis.Lint.kinds_of_string (fun ks ->
        String.concat "," (List.map Analysis.Lint.to_string ks))
  in
  Arg.(
    value
    & opt lints_conv Analysis.Lint.catalogue
    & info [ "lints" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated static-analysis lints to run: layer-encapsulation, \
           move-init, unchecked-arith, unreachable-block, conflicting-borrow, \
           dangling-handle, move-while-borrowed, interval-bounds, secret-flow, \
           alias-footprint — or a group selector: $(b,all), $(b,body), \
           $(b,borrow), $(b,interprocedural), $(b,alias).")

let timeout_ms =
  Arg.(
    value & opt non_negative_int 0
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt obligation deadline in milliseconds (0 = none).  \
           Cooperative: check batteries poll at case/trial boundaries, so an \
           attempt is cancelled at the first boundary past the deadline.")

let retries =
  Arg.(
    value & opt non_negative_int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Additional attempts, at least 0, for an obligation that crashes or \
           times out, with deterministic exponential backoff, before the \
           degradation ladder (reference-interpreter fallback for code \
           proofs) and quarantine.")

let engine_chaos_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "engine-chaos" ] ~docv:"SEED"
        ~doc:
          "Inject deterministic faults into the verification engine itself \
           (obligation crashes/hangs, worker kills, cache corruption, clock \
           skew) from SEED.  Verdicts must be byte-identical to a clean run \
           — CI asserts this.")

let engine_faults =
  Arg.(
    value
    & opt
        (fault_kinds ~what:"engine fault kind" ~all:Fault.Plan.all_engine_kinds
           ~to_string:Fault.Plan.engine_kind_to_string)
        Fault.Plan.all_engine_kinds
    & info [ "engine-faults" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated engine fault kinds for --engine-chaos: obl-crash, \
           obl-hang, worker-kill, torn-pack, clock-skew — or 'all'.")

let mc_depth =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "model-check" ] ~docv:"DEPTH"
        ~doc:
          "Also run phase 11: exhaustively explore every interleaving of the \
           hypercall/access/fault universe up to DEPTH events (at least 1) \
           from boot on the --mc-geometry layout, deduplicating states by canonical key \
           and checking invariants, TLB consistency, transactionality and \
           step-indistinguishability at every reachable state.  With \
           --buggy-tlb the phase passes only when the stale-TLB bug is \
           rediscovered and ddmin-shrunk to its minimal witness.")

let mc_geometry =
  Arg.(
    value
    & opt (enum [ ("tiny", "tiny"); ("tiny3", "tiny3") ]) "tiny"
    & info [ "mc-geometry" ] ~docv:"GEOM"
        ~doc:
          "Geometry for the model-checking phase: $(b,tiny) (2 levels) or \
           $(b,tiny3) (3 levels) — independent of --geometry, since \
           exhaustive exploration needs an enumerable state space.")

let mc_por =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "mc-por" ]
              ~doc:
                "Enable sleep-set partial-order reduction in the \
                 model-checking phase (the default)." );
          ( false,
            info [ "no-mc-por" ]
              ~doc:
                "Disable partial-order reduction: explore every interleaving \
                 order.  The violation set and reachable states are identical \
                 either way — CI asserts it." );
        ])

let serve_socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCKET"
        ~doc:
          "Run as a long-lived verification daemon on a Unix socket: a \
           dispatcher hands each request, in arrival order, to an idle one of \
           --fleet forked worker processes, which replay repeated responses \
           and share the --cache directory.  Submit requests with --client.")

let client_socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"SOCKET"
        ~doc:
          "Submit one verification request — built from the same flags a \
           local run would use — to a daemon started with --serve, print the \
           response exactly like a local run, and exit with its verdict.")

let fleet =
  Arg.(
    value & opt int 2
    & info [ "fleet" ] ~docv:"N"
        ~doc:
          "Worker processes for --serve, at least 1; each has its own OCaml \
           runtime and resident memos and serves one request at a time.  \
           Workers share the --cache directory: a proof computed by one is a \
           warm hit for all.")

let scrub_summary =
  Arg.(
    value & flag
    & info [ "scrub-summary" ]
        ~doc:
          "Write --json-out through the deterministic projection: drop every \
           scheduling-dependent field (job counts, cache statistics, wall \
           clocks, worker utilization), leaving only verification content — \
           byte-identical for the same request at any job count, fleet size \
           or cache state.  CI diffs daemon responses against one-shot runs \
           through this projection.")

let cmd =
  Cmd.v
    (Cmd.info "hyperenclave-verify"
       ~doc:"Run the full HyperEnclave memory-subsystem verification pass")
    Term.(
      const run $ geometry $ seed $ quick $ jobs $ cache_dir $ json_out $ trace_out
      $ lint_json $ chaos $ chaos_traces $ faults $ buggy_tlb $ lints $ timeout_ms
      $ retries $ engine_chaos_seed $ engine_faults $ mc_depth $ mc_geometry
      $ mc_por $ serve_socket $ client_socket $ fleet $ scrub_summary)

let () = exit (Cmd.eval' cmd)
