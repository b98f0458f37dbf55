(* The end-to-end benchmark of hyperenclave-verify: five workloads run
   against the verifier binary and daemon of this checkout, every
   verdict checked against a known answer.  See README.md. *)

module Jsonx = Engine.Jsonx

let usage =
  {|usage: e2e.exe COMMAND [--option value ...]
  bench --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is the JSON result
  run [--seed N] [--seconds S] [--repeat K] [--out FILE]
        every workload K times (seeds N .. N+K-1), as a results file
  trace [--seed N] [--seconds S] [--workload W] [--out FILE]
        per-layer metrics, and the spans as Chrome trace-event JSON
  compare A.json B.json [--benchmark FILE]
        A is the parent and B the change, both from `run`
  smoke
        every workload with n = 3; fails on any harness error or failure
  --seconds S: a section runs its workload's fixed n verdicts, sized to
        take at most S seconds; one that passes 3 S fails the run
  --bin PATH: the verifier (default _build/default/bin/hyperenclave_verify.exe)|}

let fail_usage msg =
  prerr_endline ("e2e: " ^ msg);
  prerr_endline usage;
  exit 2

(* "--key value" pairs and positional arguments *)
let rec split_args = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      let opts, pos = split_args rest in
      ((k, v) :: opts, pos)
  | k :: _ when String.starts_with ~prefix:"--" k -> fail_usage ("missing value for " ^ k)
  | x :: rest ->
      let opts, pos = split_args rest in
      (opts, x :: pos)
  | [] -> ([], [])

let check_keys opts allowed =
  List.iter
    (fun (k, _) -> if not (List.mem k ("--bin" :: allowed)) then fail_usage ("unknown option " ^ k))
    opts

let convert key conv v = try conv v with _ -> fail_usage (Printf.sprintf "bad %s: %s" key v)

let option opts key ~default conv =
  match List.assoc_opt key opts with None -> default | Some v -> convert key conv v

let required opts key conv =
  match List.assoc_opt key opts with
  | None -> fail_usage ("missing " ^ key)
  | Some v -> convert key conv v

let workload_of name =
  match Workload.find name with
  | Some w -> w
  | None ->
      fail_usage
        (Printf.sprintf "unknown workload %S (one of %s)" name
           (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)))

(* A scratch directory inside the checkout for caches, sockets and
   logs, and the host-speed probe; removed, with any daemon still
   running, on the way out. *)
let with_env ~bin ~seed ~setup_reps f =
  if not (Sys.file_exists bin) then begin
    prerr_endline ("e2e: no verifier at " ^ bin ^ " (build it with `dune build`)");
    exit 2
  end;
  let work = Printf.sprintf ".bench_build/e2e/%d" (Unix.getpid ()) in
  Proc.mkdir_p work;
  let err =
    Unix.openfile (Filename.concat work "stderr.log")
      [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]
      0o644
  in
  let speed = Speed.start () in
  let env =
    { Workload.bin; work; err; seed; setup_reps; speed }
  in
  Fun.protect
    ~finally:(fun () ->
      Workload.stop_all ();
      Speed.stop speed;
      Unix.close err;
      Proc.rm_rf work)
    (fun () -> f env)

let budget (w : Workload.t) ~seconds = { Workload.n = w.n; cap_s = 3.0 *. seconds }

let print_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-28s %16.9g %s\n" name v unit) metrics

let metrics_json metrics =
  Jsonx.Obj
    (List.map
       (fun (name, unit, v) -> (name, Jsonx.Obj [ ("value", Float v); ("unit", Str unit) ]))
       metrics)

let result_line (tally : Workload.tally) metrics =
  Jout.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool (tally.failed = 0));
         ("attempted", Int tally.attempted);
         ("failed", Int tally.failed);
         ("metrics", metrics_json metrics);
       ])

let trace_json outcomes =
  Jsonx.Obj
    [
      ( "traceEvents",
        Jsonx.List
          (List.concat
             (List.mapi
                (fun i (_, o) -> Span.chrome_events ~pid:(i + 1) o.Layer_trace.trace_spans)
                outcomes)) );
      ( "otherData",
        Obj
          (List.map
             (fun ((w : Workload.t), o) ->
               ( w.name,
                 Jsonx.Obj
                   (List.map (fun (k, _, v) -> (k, Jsonx.Float v)) o.Layer_trace.layer_metrics) ))
             outcomes) );
    ]

let write_file path contents =
  Proc.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* Metrics that `run` and `compare` report but BENCHMARK.json does not
   gate: failed_ratio may be 0 (the result line's [failed] and
   [attempted] carry it); the tail's spread over ten seeds exceeded
   the largest bound BENCHMARK.json allows; and CPU per verdict repeats
   the latency of a one-shot run at --jobs 1, while served-warm's, about
   0.1 ms, spread 0.19 over ten seeds (README.md). *)
let ungated = [ "failed_ratio"; "verdict_tail_s"; "cpu_per_verdict_s" ]

(* BENCHMARK.json's command: one workload, one JSON line. *)
let bench ~bin opts =
  check_keys opts [ "--workload"; "--seed"; "--seconds"; "--trace" ];
  let w = required opts "--workload" workload_of in
  let seed = required opts "--seed" int_of_string in
  let seconds = required opts "--seconds" float_of_string in
  let traced =
    option opts "--trace" ~default:false (function
      | "0" -> false
      | "1" -> true
      | _ -> invalid_arg "--trace")
  in
  let line =
    with_env ~bin ~seed ~setup_reps:5 (fun env ->
        let budget = budget w ~seconds in
        if traced then begin
          let o = Layer_trace.run env budget w in
          write_file
            (Printf.sprintf ".bench_build/e2e-trace-%s.json" w.name)
            (Jout.to_string (trace_json [ (w, o) ]));
          print_metrics o.layer_metrics;
          result_line o.tally o.layer_metrics
        end
        else begin
          let r = Workload.measure env budget w in
          let metrics =
            List.filter (fun (k, _, _) -> not (List.mem k ungated)) (Workload.metrics r)
          in
          print_metrics metrics;
          Printf.eprintf "  host slowdown: median %.4f over %d probes in the section\n"
            r.slowdown (List.length env.speed.samples);
          result_line r.tally metrics
        end)
  in
  print_endline line

let env_json ~seed ~seconds ~repeat =
  let git_head =
    if not (Sys.file_exists ".git") then "unknown"
    else
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let head = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      head
  in
  let loadavg =
    try float_of_string (List.hd (String.split_on_char ' ' (Proc.read_file "/proc/loadavg")))
    with _ -> -1.0
  in
  Jsonx.Obj
    [
      ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
      ("jobs", Int Workload.jobs);
      ("ocaml", Str Sys.ocaml_version);
      ("git_head", Str git_head);
      ("loadavg_1m", Float loadavg);
      ("seed", Int seed);
      ("seconds", Float seconds);
      ("repeat", Int repeat);
    ]

let run_json (r : Workload.result) ~seed =
  let _, tail_pct = Stats.tail r.latencies in
  Jsonx.Obj
    [
      ("workload", Jsonx.Str r.workload.name);
      ("seed", Int seed);
      ("n", Int (List.length r.latencies));
      ("tail_pct", Float tail_pct);
      ("slowdown", Float r.slowdown);
      ("attempted", Int r.tally.attempted);
      ("failed", Int r.tally.failed);
      ("metrics", metrics_json (Workload.metrics r));
    ]

let print_row (r : Workload.result) =
  let m = Workload.metrics r in
  let get k = List.assoc k (List.map (fun (k, _, v) -> (k, v)) m) in
  let _, tail_pct = Stats.tail r.latencies in
  Printf.printf "%-16s %5d %10.4f %10.4f (p%4.1f) %10.2f %8.4f %9.1f %9.3f %6.3f %8.3f\n%!"
    r.workload.name (List.length r.latencies) (get "verdict_p50_s") (get "verdict_tail_s")
    tail_pct (get "verdicts_per_s") (get "cpu_per_verdict_s") (get "peak_rss_mb")
    (get "setup_s") (get "failed_ratio") r.slowdown

let header () =
  Printf.printf "%-16s %5s %10s %18s %10s %8s %9s %9s %6s %8s\n" "workload" "n" "p50 (s)"
    "tail (s)" "verdicts/s" "cpu (s)" "rss (MiB)" "setup (s)" "failed" "slowdown"

let run ~bin opts =
  check_keys opts [ "--seed"; "--seconds"; "--repeat"; "--out" ];
  let seed = option opts "--seed" ~default:1 int_of_string in
  let seconds = option opts "--seconds" ~default:25.0 float_of_string in
  let repeat = option opts "--repeat" ~default:1 int_of_string in
  let out = option opts "--out" ~default:None Option.some in
  let env_j = env_json ~seed ~seconds ~repeat in
  header ();
  let runs =
    List.concat
      (List.init repeat (fun k ->
           with_env ~bin ~seed:(seed + k) ~setup_reps:5 (fun env ->
               List.map
                 (fun w ->
                   (* each workload in a fresh child: a one-shot run's
                      peak RSS counts the RSS of the process spawning it *)
                   match
                     Proc.in_child (fun () ->
                         Fun.protect ~finally:Workload.stop_all (fun () ->
                             Workload.measure env (budget w ~seconds) w))
                   with
                   | Ok r ->
                       print_row r;
                       r
                   | Error msg -> failwith msg)
                 Workload.all)
           |> List.map (fun r -> run_json r ~seed:(seed + k))))
  in
  Option.iter
    (fun path ->
      write_file path
        (Jout.to_string (Jsonx.Obj [ ("env", env_j); ("runs", Jsonx.List runs) ]) ^ "\n"))
    out

let trace ~bin opts =
  check_keys opts [ "--seed"; "--seconds"; "--workload"; "--out" ];
  let seed = option opts "--seed" ~default:1 int_of_string in
  let seconds = option opts "--seconds" ~default:25.0 float_of_string in
  let workloads =
    option opts "--workload" ~default:Workload.all (fun n -> [ workload_of n ])
  in
  let out = option opts "--out" ~default:".bench_build/e2e-trace.json" Fun.id in
  let outcomes =
    with_env ~bin ~seed ~setup_reps:1 (fun env ->
        List.map
          (fun (w : Workload.t) ->
            let o = Layer_trace.run env (budget w ~seconds) w in
            Printf.printf "%s (%d verdicts checked, %d failed)\n" w.name o.tally.attempted
              o.tally.failed;
            List.iter
              (fun (k, unit, v) -> Printf.printf "  %-30s %14.6g %s\n" k v unit)
              o.layer_metrics;
            (w, o))
          workloads)
  in
  write_file out (Jout.to_string (trace_json outcomes));
  Printf.printf "spans: %s\n" out;
  if List.exists (fun (_, o) -> o.Layer_trace.tally.failed > 0) outcomes then exit 1

let smoke ~bin opts =
  check_keys opts [];
  header ();
  let failed =
    with_env ~bin ~seed:1 ~setup_reps:1 (fun env ->
        List.fold_left
          (fun acc w ->
            let r = Workload.measure env { Workload.n = 3; cap_s = 60.0 } w in
            print_row r;
            acc + r.tally.failed)
          0 Workload.all)
  in
  if failed > 0 then begin
    Printf.printf "smoke: %d verdict(s) failed\n" failed;
    exit 1
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* unwind on a kill, so daemons are stopped and the scratch removed *)
  let interrupted _ = failwith "interrupted" in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  match List.tl (Array.to_list Sys.argv) with
  | [] -> fail_usage "missing command"
  | cmd :: rest -> (
      let opts, pos = split_args rest in
      let bin =
        Option.value ~default:"_build/default/bin/hyperenclave_verify.exe"
          (List.assoc_opt "--bin" opts)
      in
      try
        match (cmd, pos) with
        | "bench", [] -> bench ~bin opts
        | "run", [] -> run ~bin opts
        | "trace", [] -> trace ~bin opts
        | "smoke", [] -> smoke ~bin opts
        | "compare", [ a; b ] ->
            check_keys opts [ "--benchmark" ];
            let benchmark = option opts "--benchmark" ~default:"BENCHMARK.json" Fun.id in
            exit (Compare_runs.run ~benchmark a b)
        | _ -> fail_usage ("bad command line for " ^ cmd)
      with
      | Failure msg | Sys_error msg | Invalid_argument msg ->
          prerr_endline ("e2e: " ^ msg);
          exit 1
      | Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "e2e: %s(%s): %s\n" fn arg (Unix.error_message e);
          exit 1)
