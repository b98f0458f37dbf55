(* The per-layer trace: each workload repeated in-process with spans
   around the public entry points of every layer it reaches.

   A one-shot verdict runs in a forked child, so every memo starts cold
   as in a fresh CLI process.  The child makes the CLI's calls in the
   CLI's order, each under a span, and its stdout must equal the CLI's.
   A served workload first times the client side of the protocol
   against the real daemon, then feeds the same request stream to an
   in-process fleet-0 session in a child, through the Driver's public
   calls (see [handle]).

   Verdicts alternate traced and untraced: the ratio of their median
   walls is the trace's own overhead.  Times, counts and sizes are
   per-verdict medians over the traced verdicts; ratios are ratios of
   sums, so they weigh every verdict by its work. *)

module Jsonx = Engine.Jsonx
module Driver = Serve.Driver

type verdict = {
  req : int;
  traced : bool;
  wall : float;  (** the verdict root, with or without spans *)
  values : (string * float) list;  (** what the layers reported *)
  ok : bool;  (** the known answer held *)
  stdout : string option;  (** kept for the byte comparison with the CLI *)
}

type report = { verdicts : verdict list; spans : Span.t list }

let gc_values gc0 =
  let gc1 = Gc.quick_stat () in
  [
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.top_heap_mb", Span.mb (float_of_int gc1.Gc.top_heap_words));
  ]

(* ------------------------------------------------------------------ *)
(* One-shot verdicts                                                   *)

let exec_values ~pool_s ~cache ~cache_dir execs =
  let open Engine in
  let dur (e : Pool.exec) = e.finished -. e.started in
  let sum f es = List.fold_left (fun acc e -> acc +. f e) 0.0 es in
  let count p es = float_of_int (List.length (List.filter p es)) in
  let hit (e : Pool.exec) = e.cache = Pool.Hit in
  let wall = Pool.wall_of execs and busy = sum dur execs in
  let finished = Hashtbl.create 512 in
  List.iter
    (fun (e : Pool.exec) -> Hashtbl.replace finished e.obligation.Obligation.id e.finished)
    execs;
  (* an obligation is ready when its last dependency finished *)
  let queue_wait (e : Pool.exec) =
    let ready =
      List.fold_left
        (fun acc d -> Float.max acc (Option.value ~default:0.0 (Hashtbl.find_opt finished d)))
        0.0 e.obligation.Obligation.deps
    in
    Float.max 0.0 (e.started -. ready)
  in
  let sup = Supervisor.totals (List.map (fun (e : Pool.exec) -> e.trail) execs) in
  let mc = Serve.Summary.mc_rollup execs in
  let phase p =
    let es = Serve.Summary.of_phase execs p in
    let first = List.fold_left (fun acc (e : Pool.exec) -> Float.min acc e.started) infinity es
    and last = List.fold_left (fun acc (e : Pool.exec) -> Float.max acc e.finished) 0.0 es in
    [
      ("phase." ^ p ^ ".busy_s", sum dur es);
      ("phase." ^ p ^ ".wall_s", if es = [] then 0.0 else last -. first);
      ("phase." ^ p ^ ".executed", count (fun e -> not (hit e)) es);
    ]
  in
  [
    ("plan.obligations", float_of_int (List.length execs));
    ("pool.wall_s", wall);
    ("pool.busy_s", busy);
    ("pool.idle_s", (float_of_int Workload.jobs *. wall) -. busy);
    ("pool.queue_wait_s", sum queue_wait execs);
    ("pool.executed", count (fun e -> not (hit e)) execs);
    ("supervisor.retried", float_of_int sup.Supervisor.retried);
    ("supervisor.fell_back", float_of_int sup.Supervisor.fell_back);
    ("supervisor.quarantined", float_of_int sup.Supervisor.quarantined);
    ("mc.states", float_of_int mc.Mc.Explore.r_states);
    ("mc.candidates", float_of_int (mc.Mc.Explore.r_transitions + mc.Mc.Explore.r_pruned));
    ("mc.pruned", float_of_int mc.Mc.Explore.r_pruned);
    ("mc.busy_s", sum dur (Serve.Summary.of_phase execs "model-check"));
    (* Pool.run_with_stats flushes the cache after its last obligation *)
    ("cache.flush_s", if cache = None then 0.0 else pool_s -. wall);
    ("cache.hit_s", sum dur (List.filter hit execs));
    ("cache.hits", count hit execs);
    ("cache.lookups", if cache = None then 0.0 else float_of_int (List.length execs));
    ( "cache.write_failures",
      match cache with None -> 0.0 | Some c -> float_of_int (Cache.write_failure_count c) );
    ( "cache.dir_bytes",
      match cache_dir with None -> 0.0 | Some d -> float_of_int (Proc.dir_bytes d) );
  ]
  @ List.concat_map phase Plan.phases

let model_check_of buggy =
  Option.map
    (fun b ->
      {
        Engine.Plan.mc_depth = 5;
        mc_por = true;
        mc_flush = not b;
        mc_layout = Driver.mc_layout_of_geometry "tiny";
      })
    buggy

(* The CLI's calls for one verdict (bin/hyperenclave_verify.ml), in its
   order, with stdout going to a buffer; [Layers.stack] and
   [Layers.warm] are called ahead of the calls that would do their work
   implicitly, so that work gets its own span.  The summary is what
   --json-out would write.  When traced, the front end is then split by
   standalone calls on the module source, outside the verdict. *)
let oneshot_verdict ~req ~traced ~seed ~cache_dir ~buggy ~keep_stdout () =
  Span.enabled := traced;
  let span name f = Span.with_ ~req name f in
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let model_check = model_check_of buggy in
  let buf = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer buf in
  let failures = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t0 = Proc.now () in
  let execs, pool_s, pool_words, cache, hit =
    span "verdict" (fun () ->
        span "rustlite.compile" (fun () -> ignore (Hyperenclave.Layers.compiled layout));
        span "hyperenclave.stack" (fun () -> ignore (Hyperenclave.Layers.stack layout));
        span "render.prelude" (fun () -> Serve.Render.prelude ppf ~failures layout);
        span "mir.closure_compile" (fun () -> Hyperenclave.Layers.warm layout);
        let plan, hit, build_s =
          span "plan.build" (fun () ->
              Engine.Plan.build_memo ~quick:(buggy <> None) ~security:true ?model_check
                ~seed layout)
        in
        let cache =
          span "cache.create" (fun () ->
              Option.map (fun dir -> Engine.Cache.create ~dir) cache_dir)
        in
        let sup = { Engine.Supervisor.default with retries = 2; seed } in
        let p0 = Proc.now () and w0 = Span.program_words () in
        let execs, stats =
          span "pool.run" (fun () ->
              Engine.Pool.run_with_stats ?cache ~sup ~jobs:Workload.jobs plan.Engine.Plan.dag)
        in
        let pool_s = Proc.now () -. p0 and pool_words = Span.program_words () -. w0 in
        span "render.stdout" (fun () ->
            Serve.Render.engine_results ppf ~failures ~security:true execs;
            Option.iter (fun m -> Serve.Render.model_check ppf ~failures m execs) model_check;
            Serve.Render.verdict ppf !failures;
            Format.pp_print_flush ppf ());
        span "render.summary" (fun () ->
            let sup_totals =
              Engine.Supervisor.totals (List.map (fun (e : Engine.Pool.exec) -> e.trail) execs)
            in
            let cache_write_failures =
              match cache with None -> 0 | Some c -> Engine.Cache.write_failure_count c
            in
            ignore
              (Jsonx.to_multiline_string
                 (Serve.Summary.summary_json ~failures:!failures ~jobs:Workload.jobs
                    ~cache_enabled:(cache <> None) ~sup_totals ~stats ~cache_write_failures
                    ~engine_chaos:None ~model_check ~plan ~plan_build_s:build_s
                    ~plan_cache_hit:hit execs)));
        (execs, pool_s, pool_words, cache, hit))
  in
  let wall = Proc.now () -. t0 in
  let values =
    gc_values gc0
    @ exec_values ~pool_s ~cache ~cache_dir execs
    @ [
        ("plan.builds", 1.0);
        ("plan.memo_hits", if hit then 1.0 else 0.0);
        ("render.stdout_bytes", float_of_int (Buffer.length buf));
        ("gc.pool.alloc_mb", Span.mb pool_words);
      ]
  in
  (if traced then
     let src = Hyperenclave.Mem_source.source layout in
     match span "rustlite.parse" (fun () -> Rustlite.Parser.parse src) with
     | Error _ -> ()
     | Ok ast -> (
         match span "rustlite.typecheck" (fun () -> Rustlite.Typecheck.check ast) with
         | Error _ -> ()
         | Ok typed ->
             let program, externs =
               span "rustlite.lower" (fun () -> Rustlite.Lower.lower_program typed)
             in
             ignore
               (span "mir.validate" (fun () ->
                    Mir.Validate.check_program ~primitives:externs program))));
  let stdout = Buffer.contents buf in
  {
    verdicts =
      [
        {
          req;
          traced;
          wall;
          values;
          ok = Workload.known_answer buggy stdout;
          stdout = (if keep_stdout then Some stdout else None);
        };
      ];
    spans = Span.take ();
  }

(* ------------------------------------------------------------------ *)
(* Served verdicts                                                     *)

(* One request through the session's public calls, under the root span
   "serve.handle".  A request the stream sent before goes to
   [Driver.handle_one], whose L0 memo may replay it; whether it did is
   read from [session.replays].  A new request is decoded, prepared and
   verified (which refreshes and flushes the cache) by the calls
   [Driver.handle_batch] makes for it, each under its own span.  Returns
   the response, whether it was replayed, and [Some (p, words)] when it
   was prepared here, allocating [words] in all domains. *)
let handle (session : Driver.session) ~req ~sent_before payload =
  let span name f = Span.with_ ~req name f in
  span "serve.handle" (fun () ->
      if sent_before then begin
        let replays = session.Driver.replays in
        let response = Driver.handle_one session payload in
        (response, session.Driver.replays > replays, None)
      end
      else
        match span "serve.decode" (fun () -> Driver.request_of_string payload) with
        | Error msg -> (Driver.error_response msg, false, None)
        | Ok r ->
            let p = span "serve.prepare" (fun () -> Driver.prepare r) in
            let w0 = Span.program_words () in
            let response =
              span "serve.verify" (fun () ->
                  match Driver.verify_prepared session [ p ] with
                  | [ (_, response) ] -> response
                  | _ -> Driver.error_response "internal: batch shape")
            in
            (response, false, Some (p, Span.program_words () -. w0)))

(* What the summary of a verified (not replayed) response reports. *)
let summary_values summary =
  let num path = Jout.number (Jout.get path summary) in
  let obligations = num [ "obligations" ] and wall = num [ "elapsed_s" ] in
  let list key = Option.value ~default:[] (Option.bind (Jsonx.member key summary) Jsonx.to_list_opt) in
  let busy = Stats.sum (List.map (fun w -> Jout.number (Jsonx.member "busy_s" w)) (list "workers")) in
  [
    ("plan.obligations", obligations);
    ("pool.wall_s", wall);
    ("pool.busy_s", busy);
    ("pool.idle_s", (float_of_int Workload.jobs *. wall) -. busy);
    ("pool.executed", num [ "executed" ]);
    ("supervisor.retried", num [ "supervision"; "retried" ]);
    ("supervisor.fell_back", num [ "supervision"; "fell_back" ]);
    ("supervisor.quarantined", num [ "supervision"; "quarantined" ]);
    ("cache.hits", num [ "cache_hits" ]);
    ("cache.lookups", obligations);
    ("cache.write_failures", num [ "cache_write_failures" ]);
  ]
  @ List.concat_map
      (fun ph ->
        match Option.bind (Jsonx.member "phase" ph) Jsonx.to_string_opt with
        | None -> []
        | Some p ->
            (* the summary's per-phase "wall_s" is summed busy time *)
            [
              ("phase." ^ p ^ ".busy_s", Jout.number (Jsonx.member "wall_s" ph));
              ("phase." ^ p ^ ".executed", Jout.number (Jsonx.member "executed" ph));
            ])
      (list "phases")

(* The served request stream in a fleet-0 session set up like a daemon
   worker: the default-plan prewarm, then the workload's first request
   untimed, then [budget.n] requests of the stream. *)
let served_stream (env : Workload.env) budget w ~cache_dir () =
  let seed_of = Workload.seed_of env w in
  let session = Driver.session ~cache_dir ~jobs:Workload.jobs ~retries:2 () in
  ignore
    (Engine.Plan.build_memo ~seed:Driver.default_request.Driver.seed
       (Driver.layout_of_geometry Driver.default_request.Driver.geometry));
  let sent = Hashtbl.create 256 in
  let handle ~req payload =
    let sent_before = Hashtbl.mem sent payload in
    Hashtbl.replace sent payload ();
    handle session ~req ~sent_before payload
  in
  Span.enabled := false;
  (* served-warm answers its request twice, so the second answer -- a
     pure cache replay -- is recorded in L0, as the daemon's warm-up does *)
  for _ = 1 to if w.Workload.kind = Workload.Served_warm then 2 else 1 do
    ignore (handle ~req:(-1) (Workload.payload (Workload.setup_seed env 0)))
  done;
  let start = Proc.now () in
  let rec loop i acc =
    if not (Workload.within budget ~start i) then List.rev acc
    else begin
      let traced = i mod 2 = 0 in
      Span.enabled := traced;
      let gc0 = Gc.quick_stat () in
      let t0 = Proc.now () in
      let response, replayed, prepared = handle ~req:i (Workload.payload (seed_of i)) in
      let wall = Proc.now () -. t0 in
      (* the refresh verify_prepared makes before the next request,
         timed on its own outside the verdict: nothing else writes the
         session's cache in between *)
      if prepared <> None then
        Span.with_ ~req:i "cache.refresh" (fun () ->
            Option.iter (fun c -> ignore (Engine.Cache.refresh c)) session.Driver.cache);
      let j = Result.value ~default:Jsonx.Null (Jsonx.parse response) in
      let stdout =
        Option.value ~default:"" (Option.bind (Jsonx.member "stdout" j) Jsonx.to_string_opt)
      in
      let values =
        gc_values gc0
        @ [
            ("serve.requests", 1.0);
            ("serve.replays", if replayed then 1.0 else 0.0);
            ("render.stdout_bytes", float_of_int (String.length stdout));
          ]
        @
        match prepared with
        | None -> []
        | Some (p, words) ->
            [
              ("plan.builds", 1.0);
              ("plan.memo_hits", if p.Driver.p_hit then 1.0 else 0.0);
              ("cache.dir_bytes", float_of_int (Proc.dir_bytes cache_dir));
              ("gc.pool.alloc_mb", Span.mb words);
            ]
            @ summary_values (Option.value ~default:Jsonx.Null (Jsonx.member "summary" j))
      in
      let ok = Workload.quick_ok response && Workload.passes stdout in
      let v =
        { req = i; traced; wall; values; ok;
          stdout = (if i mod 10 = 0 then Some stdout else None) }
      in
      loop (i + 1) (v :: acc)
    end
  in
  let verdicts = loop 0 [] in
  { verdicts; spans = Span.take () }

(* ------------------------------------------------------------------ *)
(* Per workload                                                        *)

type client = { waits : float list; parses : float list; bytes : float list }

let no_client = { waits = []; parses = []; bytes = [] }

(* Count every verdict's known answer, and compare each kept stdout
   with a one-shot CLI run of the same flags. *)
let check env tally verdicts ~args_of =
  let cli_stdout = Workload.cli_stdout env in
  List.iter
    (fun v ->
      let same =
        match v.stdout with
        | None -> true
        | Some out -> String.equal (cli_stdout (args_of v.req)) out
      in
      Workload.count tally (v.ok && same))
    verdicts

let collect tally = function
  | Ok (r : report) -> r
  | Error msg ->
      Printf.eprintf "e2e: trace child failed: %s\n%!" msg;
      Workload.count tally false;
      { verdicts = []; spans = [] }

let oneshot_trace (env : Workload.env) tally budget w =
  let cache =
    match w.Workload.kind with
    | Workload.Oneshot_warm ->
        let dir = Filename.concat env.work "trace-cache" in
        ignore
          (Workload.run_cli env tally ~check:Workload.passes
             (Workload.cli_args ~cache:dir (Workload.setup_seed env 0)));
        Some dir
    | _ -> None
  in
  let seed i =
    if cache <> None then Workload.setup_seed env 0 else Workload.measured_seed env i
  in
  (* traced and untraced alternate, and bug-hunt's monitor every two *)
  let buggy i = Workload.buggy_of w (i / 2) in
  let start = Proc.now () in
  let rec loop i acc =
    if not (Workload.within budget ~start i) then acc
    else
      let r =
        collect tally
          (Proc.in_child
             (oneshot_verdict ~req:i ~traced:(i mod 2 = 0) ~seed:(seed i) ~cache_dir:cache
                ~buggy:(buggy i) ~keep_stdout:(i mod 10 = 0)))
      in
      loop (i + 1) (r :: acc)
  in
  let reports = loop 0 [] in
  let verdicts = List.concat_map (fun r -> r.verdicts) reports in
  check env tally verdicts ~args_of:(fun i ->
      Workload.cli_args ?cache ?buggy:(buggy i) (seed i));
  (verdicts, List.concat_map (fun r -> r.spans) reports, no_client)

let served_trace (env : Workload.env) tally budget w =
  (* half the requests against the daemon, half in-process *)
  let half = { budget with Workload.n = max 1 (budget.Workload.n / 2) } in
  let d, _ = Workload.setup_daemon { env with setup_reps = 0 } tally w in
  let waits = ref [] and parses = ref [] and bytes = ref [] in
  let _, kept =
    Workload.served_section env tally half w d ~on_response:(fun ~latency response ->
        let t0 = Proc.now () in
        ignore (Jsonx.parse response);
        parses := (Proc.now () -. t0) :: !parses;
        waits := latency :: !waits;
        bytes := float_of_int (String.length response) :: !bytes)
  in
  ignore (Workload.stop_daemon d);
  Workload.check_kept env tally kept;
  let cache_dir = Filename.concat env.work "trace-session-cache" in
  let r = collect tally (Proc.in_child (served_stream env half w ~cache_dir)) in
  let seed_of = Workload.seed_of env w in
  check env tally r.verdicts ~args_of:(fun i -> Workload.cli_args (seed_of i));
  (r.verdicts, r.spans, { waits = !waits; parses = !parses; bytes = !bytes })

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let phase_metrics med_value =
  List.concat_map
    (fun p ->
      [
        ("phase." ^ p ^ ".busy_s", "s", med_value ("phase." ^ p ^ ".busy_s"));
        ("phase." ^ p ^ ".wall_s", "s", med_value ("phase." ^ p ^ ".wall_s"));
        ("phase." ^ p ^ ".executed", "count", med_value ("phase." ^ p ^ ".executed"));
      ])
    Engine.Plan.phases

let metrics ~root verdicts spans client =
  let traced = List.filter (fun v -> v.traced) verdicts in
  let spans_of = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      Hashtbl.replace spans_of s.req
        (s :: Option.value ~default:[] (Hashtbl.find_opt spans_of s.req)))
    spans;
  let spans_of req = Option.value ~default:[] (Hashtbl.find_opt spans_of req) in
  let med f = Stats.median (List.map (fun v -> f v (spans_of v.req)) traced) in
  let value k v = Option.value ~default:0.0 (List.assoc_opt k v.values) in
  let v k = med (fun vd _ -> value k vd) in
  let t names = med (fun _ ss -> Stats.sum (List.map (Span.total ss) names)) in
  let alloc names = med (fun _ ss -> Span.alloc_mb ss names) in
  let ratio a b =
    let total k = Stats.sum (List.map (value k) traced) in
    if total b = 0.0 then 0.0 else total a /. total b
  in
  let roots = List.filter (fun (s : Span.t) -> String.equal s.name root) spans in
  let root_s = Stats.sum (List.map Span.duration roots) in
  let root_self =
    Stats.sum (List.map (fun (s : Span.t) -> Span.self_time (spans_of s.req) s) roots)
  in
  let walls vs = List.map (fun vd -> vd.wall) vs in
  let untraced = List.filter (fun vd -> not vd.traced) verdicts in
  let handle_s = t [ "serve.handle" ] in
  let client_wait = Stats.median client.waits in
  [
    ("rustlite.compile_s", "s", t [ "rustlite.compile" ]);
    ("rustlite.parse_s", "s", t [ "rustlite.parse" ]);
    ("rustlite.typecheck_s", "s", t [ "rustlite.typecheck" ]);
    ("rustlite.lower_s", "s", t [ "rustlite.lower" ]);
    ("mir.validate_s", "s", t [ "mir.validate" ]);
    ("hyperenclave.stack_s", "s", t [ "hyperenclave.stack" ]);
    ("mir.closure_compile_s", "s", t [ "mir.closure_compile" ]);
    ("plan.build_s", "s", t [ "plan.build"; "serve.prepare" ]);
    ("plan.obligations", "count", v "plan.obligations");
    ("plan.memo_hit_ratio", "1", ratio "plan.memo_hits" "plan.builds");
    ("pool.wall_s", "s", v "pool.wall_s");
    ("pool.busy_s", "s", v "pool.busy_s");
    ("pool.idle_s", "s", v "pool.idle_s");
    ("pool.queue_wait_s", "s", v "pool.queue_wait_s");
    ("pool.executed", "count", v "pool.executed");
    ("supervisor.retried", "count", v "supervisor.retried");
    ("supervisor.fell_back", "count", v "supervisor.fell_back");
    ("supervisor.quarantined", "count", v "supervisor.quarantined");
  ]
  @ phase_metrics v
  @ [
      ("mc.states", "count", v "mc.states");
      ("mc.states_per_s", "1/s", ratio "mc.states" "mc.busy_s");
      ("mc.pruned_ratio", "1", ratio "mc.pruned" "mc.candidates");
      ("cache.create_s", "s", t [ "cache.create" ]);
      ("cache.refresh_s", "s", t [ "cache.refresh" ]);
      ("cache.flush_s", "s", v "cache.flush_s");
      ("cache.hit_s", "s", v "cache.hit_s");
      ("cache.hit_ratio", "1", ratio "cache.hits" "cache.lookups");
      ("cache.dir_bytes", "B", v "cache.dir_bytes");
      ("cache.write_failures", "count", v "cache.write_failures");
      ("render.stdout_s", "s", t [ "render.prelude"; "render.stdout" ]);
      ("render.summary_s", "s", t [ "render.summary" ]);
      ("render.stdout_bytes", "B", v "render.stdout_bytes");
      ("serve.decode_s", "s", t [ "serve.decode" ]);
      ("serve.prepare_s", "s", t [ "serve.prepare" ]);
      ("serve.verify_s", "s", t [ "serve.verify" ]);
      ("serve.handle_s", "s", handle_s);
      ("serve.replay_ratio", "1", ratio "serve.replays" "serve.requests");
      ("serve.client_wait_s", "s", client_wait);
      ( "serve.transport_s",
        "s",
        if client.waits = [] then 0.0 else client_wait -. Stats.median (walls verdicts) );
      ("serve.response_bytes", "B", Stats.median client.bytes);
      ("serve.response_parse_s", "s", Stats.median client.parses);
      ("gc.frontend.alloc_mb", "MiB", alloc [ "rustlite.compile" ]);
      ("gc.plan.alloc_mb", "MiB", alloc [ "plan.build"; "serve.prepare" ]);
      ("gc.pool.alloc_mb", "MiB", v "gc.pool.alloc_mb");
      ("gc.render.alloc_mb", "MiB", alloc [ "render.prelude"; "render.stdout"; "render.summary" ]);
      ("gc.major_collections", "count", v "gc.major_collections");
      ("gc.top_heap_mb", "MiB", v "gc.top_heap_mb");
      ("trace.wall_s", "s", Stats.median (walls traced));
      ("trace.unaccounted_ratio", "1", if root_s = 0.0 then 0.0 else root_self /. root_s);
      ( "trace.overhead_ratio",
        "1",
        if untraced = [] then 0.0
        else (Stats.median (walls traced) /. Stats.median (walls untraced)) -. 1.0 );
    ]

type outcome = {
  layer_metrics : (string * string * float) list;
  tally : Workload.tally;
  trace_spans : Span.t list;
}

let run env budget w =
  let tally = { Workload.attempted = 0; failed = 0 } in
  let verdicts, spans, client =
    if Workload.is_served w then served_trace env tally budget w
    else oneshot_trace env tally budget w
  in
  let root = if Workload.is_served w then "serve.handle" else "verdict" in
  { layer_metrics = metrics ~root verdicts spans client; tally; trace_spans = spans }
