(* The five workloads and their end-to-end measurement against the real
   hyperenclave-verify binary and --serve daemon of this checkout.

   Every workload is a closed loop driven by this one process: one
   one-shot CLI run at a time, or daemon connections that each send
   their next request only after the previous answer.  All seeds derive
   from the run's --seed: setup uses derived seeds 0..15, measured
   verdicts 16 .., so a measured input repeats an earlier one of the
   run only by a collision of 30-bit hashes.
   Every verdict is checked against a known answer; a wrong, refused,
   failed or timed-out verdict counts in [failed].  Host-speed probes
   (Speed) run between verdicts, never while a request is in flight. *)

module Jsonx = Engine.Jsonx
module Driver = Serve.Driver
module Protocol = Serve.Protocol

type kind = Oneshot_cold | Oneshot_warm | Served_warm | Served_distinct | Bug_hunt

(* [n]: the verdicts a measured section runs, the same on every commit,
   so that the tail's percentile and the daemon's request count do not
   move with the speed of the code under test. *)
type t = { name : string; kind : kind; n : int }

(* Why each workload exists is in README.md and BENCHMARK.json. *)
let all =
  [
    { name = "oneshot-cold"; kind = Oneshot_cold; n = 64 };
    { name = "oneshot-warm"; kind = Oneshot_warm; n = 200 };
    { name = "served-warm"; kind = Served_warm; n = 5000 };
    { name = "served-distinct"; kind = Served_distinct; n = 60 };
    { name = "bug-hunt"; kind = Bug_hunt; n = 32 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let is_served w = match w.kind with Served_warm | Served_distinct -> true | _ -> false

(* Whether a verdict waits on the CPU.  served-warm's replayed answers
   wait on the daemon's 2 ms admission window, a timer that a slow host
   does not stretch, so its measured section runs no probe and its
   times are not scaled by the host's slowdown. *)
let on_cpu w = w.kind <> Served_warm

(* served-warm's two connections keep the admission window busy;
   served-distinct's one keeps each request alone in its admission
   batch and leaves the harness free to probe between answers
   (README.md) *)
let connections w = if w.kind = Served_warm then 2 else 1

(* Every process under test runs one pool domain (--jobs 1).  On a
   2-vCPU guest of a shared host the CLI's default of one domain per
   vCPU bought no wall time, spent 50-60 % more CPU waiting at the
   domains' collection barrier, and spread two to four times wider
   (README.md, Observations). *)
let jobs = 1

(* A section of [n] verdicts.  [cap_s] only stops a runaway section:
   passing it fails the run rather than shortening the section. *)
type budget = { n : int; cap_s : float }

let within budget ~start i =
  if Proc.now () -. start > budget.cap_s then
    failwith
      (Printf.sprintf "measured section passed its %.0f s cap after %d of %d verdicts"
         budget.cap_s i budget.n);
  i < budget.n

type env = {
  bin : string;  (** the hyperenclave-verify executable *)
  work : string;  (** scratch directory inside the checkout *)
  err : Unix.file_descr;  (** stderr of every process under test *)
  seed : int;  (** the run's --seed *)
  setup_reps : int;
  speed : Speed.t;
}

(* The k-th verifier seed of a run, a hash of (--seed, k).  Not the
   run's seed plus k: the verifier generates its i-th test state from
   seed + i (lib/check/gen.ml), so consecutive seeds share all but one
   of their states, and a run of them repeated nearly the same work --
   runs differed by up to 18 % in time by their seed block alone. *)
let derived_seed env k = Random.State.bits (Random.State.make [| env.seed; k |])
let setup_seed env r = derived_seed env r
let measured_seed env i = derived_seed env (16 + i)

type tally = { mutable attempted : int; mutable failed : int }

let count tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* ------------------------------------------------------------------ *)
(* Known answers                                                       *)

let passes out =
  String.ends_with ~suffix:"\nVERIFICATION PASS: all checks succeeded\n" out
  && (not (Proc.contains out "\n  FAIL "))
  && not (Proc.contains out "UNEXPECTED")

(* The planted stale-TLB bug: every violation is a tlb-consistency one,
   shrunk to this four-event witness.  The correct monitor has none. *)
let tlb_witness = "    witness (4 events, ddmin spent "

let tlb_events =
  "      hc_create(elrange=0x0+1, mbuf=0x100)\n\
  \      hc_add_page(1, 0x0)\n\
  \      fault: tlb-prefetch(pick=0)\n\
  \      hc_remove_page(1, 0x0)\n"

let bug_hunt_ok ~buggy out =
  let violations =
    List.filter
      (String.starts_with ~prefix:"  VIOLATION ")
      (String.split_on_char '\n' out)
  in
  passes out
  &&
  if buggy then
    violations <> []
    && List.for_all
         (String.starts_with ~prefix:"  VIOLATION tlb-consistency at state ")
         violations
    && Proc.contains out tlb_witness && Proc.contains out tlb_events
    && Proc.contains out
         "rediscovered the planted stale-TLB bug exhaustively (minimal witness: 4 events)"
  else
    violations = []
    && Proc.contains out "  no violations: every reachable state satisfies"

(* CLI flags of a verdict: the defaults plus a seed, a cache, or the
   bug-hunt model check with the buggy or correct monitor *)
let cli_args ?cache ?buggy seed =
  (match buggy with
  | None -> []
  | Some b -> [ "--quick"; "--model-check"; "5" ] @ if b then [ "--buggy-tlb" ] else [])
  @ [ "--jobs"; string_of_int jobs; "--seed"; string_of_int seed ]
  @ match cache with None -> [] | Some dir -> [ "--cache"; dir ]

(* the serve request equal to the default CLI flags with [seed] *)
let payload seed =
  Jsonx.to_string (Driver.json_of_request { Driver.default_request with Driver.seed })

(* Cheap check inside the timed loop; every 10th response is also
   checked in full afterwards. *)
let quick_ok response =
  String.starts_with ~prefix:{|{"ok": true, |} response
  && Proc.contains
       (String.sub response 0 (min 160 (String.length response)))
       {|"status": 0, |}

(* A served response is right when it passes and its stdout is
   byte-equal to a one-shot run of the same request. *)
let response_ok ~reference response =
  match Jsonx.parse response with
  | Error _ -> false
  | Ok j -> (
      Jsonx.member "ok" j = Some (Jsonx.Bool true)
      && Jsonx.member "status" j = Some (Jsonx.Int 0)
      &&
      match Jsonx.member "stdout" j with
      | Some (Jsonx.Str s) -> passes s && String.equal s reference
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

(* Times are in reference-host seconds (Speed): each is divided by the
   slowdown of the probe before it.  served-warm's section runs no
   probe, so its times are as measured. *)
type result = {
  workload : t;
  latencies : float list;  (** one per measured verdict *)
  wall_s : float;  (** the measured section, first start to last verdict *)
  cpu_s : float;  (** user+system of the processes under test in it *)
  peak_rss_kb : float;
      (** the daemon's with its reaped workers; for one-shot runs the
          median of each run's peak, since the largest of them grows
          with the number of runs a section fits *)
  setup_s : float list;
  slowdown : float;
      (** the host's median during the measured section, for the record;
          1 where no probe ran in it (served-warm) *)
  tally : tally;
}

let metrics r =
  let n = List.length r.latencies in
  let tail, _ = Stats.tail r.latencies in
  [
    ("verdict_p50_s", "s", Stats.median r.latencies);
    ("verdict_tail_s", "s", tail);
    ("verdicts_per_s", "1/s", float_of_int n /. r.wall_s);
    ("cpu_per_verdict_s", "s", r.cpu_s /. float_of_int (max 1 n));
    ("peak_rss_mb", "MiB", r.peak_rss_kb /. 1024.0);
    ("setup_s", "s", Stats.median r.setup_s);
    ( "failed_ratio",
      "1",
      float_of_int r.tally.failed /. float_of_int (max 1 r.tally.attempted) );
  ]

(* ------------------------------------------------------------------ *)
(* One-shot workloads                                                  *)

let run_cli env tally ~check args =
  let out, r, dt = Proc.run_capture ~bin:env.bin ~err:env.err args in
  count tally (r.Proc.code = 0 && check out);
  (out, r, dt)

let buggy_of w i = match w.kind with Bug_hunt -> Some (i mod 2 = 0) | _ -> None

let known_answer buggy out =
  match buggy with Some buggy -> bug_hunt_ok ~buggy out | None -> passes out

let check_of w i = known_answer (buggy_of w i)

let oneshot env budget w =
  let tally = { attempted = 0; failed = 0 } in
  (* oneshot-warm re-runs the set-up's seeds in turn, each against the
     cache its set-up run filled, so that a run's median does not rest
     on one seed; the known answer is the stdout of that cold run *)
  let seeds = env.setup_reps + 1 in
  let cache r = Filename.concat env.work (Printf.sprintf "cache%d" r) in
  let reference = Array.make seeds "" in
  Speed.reset env.speed;
  (* rep 0 is not timed: it pays the first exec of the binary after a
     build or an idle spell *)
  let setup_s =
    List.tl @@ List.init seeds (fun r ->
        Speed.probe env.speed;
        let dt =
          match w.kind with
          | Oneshot_warm ->
              Proc.rm_rf (cache r);
              let out, _, dt =
                run_cli env tally ~check:passes (cli_args ~cache:(cache r) (setup_seed env r))
              in
              reference.(r) <- out;
              dt
          | _ ->
              (* the preparation of a cacheless run: one discarded run *)
              let _, _, dt =
                run_cli env tally ~check:(check_of w r)
                  (cli_args ?buggy:(buggy_of w r) (setup_seed env r))
              in
              dt
        in
        Speed.host env.speed dt)
  in
  let args i =
    match w.kind with
    | Oneshot_warm -> cli_args ~cache:(cache (i mod seeds)) (setup_seed env (i mod seeds))
    | _ -> cli_args ?buggy:(buggy_of w i) (measured_seed env i)
  in
  let check i out =
    match w.kind with
    | Oneshot_warm -> String.equal out reference.(i mod seeds)
    | _ -> check_of w i out
  in
  Speed.reset env.speed;
  let start = Proc.now () in
  let rec loop i lat cpu rss =
    if within budget ~start i then begin
      Speed.due env.speed;
      let _, r, dt = run_cli env tally ~check:(check i) (args i) in
      let host = Speed.host env.speed in
      loop (i + 1) (host dt :: lat) (cpu +. host r.Proc.cpu_s)
        (float_of_int r.Proc.maxrss_kb :: rss)
    end
    else (lat, cpu, rss)
  in
  let latencies, cpu_s, rss = loop 0 [] 0.0 [] in
  { workload = w; latencies; wall_s = Speed.elapsed env.speed; cpu_s;
    peak_rss_kb = Stats.median rss; setup_s; slowdown = Speed.slowdown env.speed; tally }

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)

type daemon = { pid : int; sock : string; log : string }

(* daemons still running; stopped on any exit path *)
let live : daemon list ref = ref []

let stop_daemon d =
  live := List.filter (fun x -> x != d) !live;
  (match Serve.Client.shutdown ~socket:d.sock with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  Proc.reap d.pid

let stop_all () = List.iter (fun d -> ignore (stop_daemon d)) !live
let request_timeout_s = 60.0

(* Fork a default daemon (fleet 2, 2 ms window) with its own cache and
   time it until its first answered request. *)
let start_daemon env tally ~idx ~first_seed =
  let path ext = Filename.concat env.work (Printf.sprintf "d%d%s" idx ext) in
  let sock = path ".sock" and log = path ".log" in
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let t0 = Proc.now () in
  let pid =
    Unix.create_process env.bin
      [| env.bin; "--serve"; sock; "--cache"; path ".cache"; "--jobs"; string_of_int jobs |]
      Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  let d = { pid; sock; log } in
  live := d :: !live;
  let rec connect () =
    match Serve.Client.connect sock with
    | Ok fd -> fd
    | Error msg ->
        if Proc.now () -. t0 > request_timeout_s then
          failwith ("daemon did not come up: " ^ msg);
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  let response =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match
          Protocol.write_frame fd (payload first_seed);
          Protocol.read_frame fd
        with
        | Ok (Some r) -> r
        | Ok None | Error _ -> ""
        | exception (Protocol.Closed | Unix.Unix_error _) -> "")
  in
  let dt = Proc.now () -. t0 in
  count tally (quick_ok response);
  (d, dt)

(* the daemon and its fleet workers, as logged at start and respawn *)
let fleet_pids d =
  d.pid
  :: List.filter_map
       (fun l ->
         Scanf.sscanf_opt l "serve: fleet worker %d started (pid %d)" (fun _ p -> p))
       (String.split_on_char '\n' (Proc.read_file d.log))

let fleet_cpu d = Stats.sum (List.map Proc.cpu_of_pid (fleet_pids d))

type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  mutable busy : bool;
  mutable alive : bool;
  mutable seed : int;
  mutable sent_at : float;
}

(* Closed loop over [conns] connections: an idle connection takes the
   next seed from [next] ([None] ends the loop once every answer is in)
   and waits for the answer.  Latency runs from before the frame is
   written to after the response is read.  Returns the time of the last
   response. *)
let drive ~sock ~conns ~next ~on_response ~on_error =
  let conns =
    Array.init conns (fun _ ->
        match Serve.Client.connect sock with
        | Ok fd ->
            { fd; reader = Protocol.Reader.create (); busy = false; alive = true;
              seed = 0; sent_at = 0.0 }
        | Error msg -> failwith msg)
  in
  let chunk = Bytes.create 65536 in
  let stopped = ref false and last = ref (Proc.now ()) in
  let drop c =
    on_error ();
    c.alive <- false;
    c.busy <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let send c =
    match next () with
    | None -> stopped := true
    | Some seed -> (
        c.seed <- seed;
        c.sent_at <- Proc.now ();
        match Protocol.write_frame c.fd (payload seed) with
        | () -> c.busy <- true
        | exception (Protocol.Closed | Unix.Unix_error _) -> drop c)
  in
  let receive c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> drop c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> drop c
    | n -> (
        Protocol.Reader.feed c.reader (Bytes.sub_string chunk 0 n);
        match Protocol.Reader.next c.reader with
        | `More -> ()
        | `Oversized _ -> drop c
        | `Frame response ->
            let t = Proc.now () in
            last := t;
            c.busy <- false;
            on_response ~seed:c.seed ~latency:(t -. c.sent_at) response)
  in
  let busy () = Array.exists (fun c -> c.busy) conns in
  while (not !stopped) || busy () do
    Array.iter (fun c -> if c.alive && (not c.busy) && not !stopped then send c) conns;
    if not (Array.exists (fun c -> c.alive) conns) then stopped := true;
    let waiting = List.filter (fun c -> c.busy) (Array.to_list conns) in
    if waiting <> [] then begin
      let readable =
        match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 1.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter (fun c -> if List.mem c.fd readable then receive c) waiting;
      List.iter
        (fun c ->
          if c.busy && Proc.now () -. c.sent_at > request_timeout_s then drop c)
        waiting
    end
  done;
  Array.iter
    (fun c -> if c.alive then try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  !last

(* The stdout of a one-shot run with [args], each set of flags run
   once: the reference a served or traced verdict must equal. *)
let cli_stdout env =
  let memo = Hashtbl.create 8 in
  fun args ->
    match Hashtbl.find_opt memo args with
    | Some out -> out
    | None ->
        let out, _, _ = Proc.run_capture ~bin:env.bin ~err:env.err args in
        Hashtbl.add memo args out;
        out

(* Check every kept response against a one-shot run of its request,
   outside the timed section; a wrong one counts as failed. *)
let check_kept env tally kept =
  let reference = cli_stdout env in
  List.iter
    (fun (seed, response) ->
      if quick_ok response && not (response_ok ~reference:(reference (cli_args seed)) response)
      then tally.failed <- tally.failed + 1)
    kept

(* The seed of a served workload's i-th request after setup: one seed
   over and over, or a never-seen one each time. *)
let seed_of env w =
  match w.kind with Served_distinct -> measured_seed env | _ -> fun _ -> setup_seed env 0

(* The daemon of a served workload after its timed setup, warmed so
   that every worker has answered the repeated request once.  Like a
   one-shot setup, daemon 0 is started but not timed. *)
let setup_daemon env tally w =
  let first_seed r = match w.kind with Served_warm -> setup_seed env 0 | _ -> setup_seed env r in
  let rec go r acc =
    Speed.probe env.speed;
    let d, dt = start_daemon env tally ~idx:r ~first_seed:(first_seed r) in
    let acc = if r = 0 then acc else Speed.host env.speed dt :: acc in
    if r < env.setup_reps then begin
      ignore (stop_daemon d);
      go (r + 1) acc
    end
    else (d, List.rev acc)
  in
  let d, setup_s = go 0 [] in
  (if w.kind = Served_warm then
     let issued = ref 0 in
     ignore
       (drive ~sock:d.sock ~conns:(connections w)
          ~next:(fun () ->
            incr issued;
            if !issued <= 20 then Some (setup_seed env 0) else None)
          ~on_response:(fun ~seed:_ ~latency:_ r -> count tally (quick_ok r))
          ~on_error:(fun () -> count tally false)));
  (d, setup_s)

(* A served section of [budget] against daemon [d]; [on_response] sees
   every answer after the cheap check, with its latency in
   reference-host seconds.  Returns the section's wall time without the
   probes, as measured and in reference-host seconds, and the kept
   answers.  A CPU-bound
   workload probes before it sends, when its one connection has nothing
   in flight. *)
let served_section env tally budget w d ~on_response =
  let seed_of = seed_of env w in
  let kept = ref [] and answered = ref 0 and issued = ref 0 in
  Speed.reset env.speed;
  let start = Proc.now () in
  let last =
    drive ~sock:d.sock ~conns:(connections w)
      ~next:(fun () ->
        if within budget ~start !issued then begin
          if on_cpu w then Speed.due env.speed;
          incr issued;
          Some (seed_of (!issued - 1))
        end
        else None)
      ~on_response:(fun ~seed ~latency response ->
        count tally (quick_ok response);
        if !answered mod 10 = 0 then kept := (seed, response) :: !kept;
        incr answered;
        on_response ~latency:(Speed.host env.speed latency) response)
      ~on_error:(fun () -> count tally false)
  in
  ((last -. start -. env.speed.spent, Speed.elapsed env.speed), !kept)

let served env budget w =
  let tally = { attempted = 0; failed = 0 } in
  Speed.reset env.speed;
  let d, setup_s = setup_daemon env tally w in
  let latencies = ref [] in
  let cpu0 = fleet_cpu d in
  let (raw_wall_s, wall_s), kept =
    served_section env tally budget w d ~on_response:(fun ~latency _ ->
        latencies := latency :: !latencies)
  in
  (* the section's end is read from the reaped daemon, whose rusage is
     exact and includes its reaped workers: /proc counts clock ticks *)
  let reaped = stop_daemon d in
  let cpu_s = (reaped.Proc.cpu_s -. cpu0) *. wall_s /. raw_wall_s in
  check_kept env tally kept;
  { workload = w; latencies = !latencies; wall_s; cpu_s;
    peak_rss_kb = float_of_int reaped.Proc.maxrss_kb; setup_s;
    slowdown = Speed.slowdown env.speed; tally }

let measure env budget w = if is_served w then served env budget w else oneshot env budget w
