(* Serving benchmark: requests/s against a live --serve daemon, cold
   (first evaluation of a request) vs warm (resident-memo replay), at
   fleet sizes 1/2/4, plus sequential round-trip latency percentiles —
   emitted as BENCH_serve.json (consumed by CI as an artifact; see
   EXPERIMENTS.md).

   Every daemon is forked fresh with its own socket and proof-cache
   directory, so "cold" really is cold.  Throughput is measured with a
   pipelined harness: several client connections each keep a small
   window of requests in flight, and responses are drained with select
   — the dispatcher hands the queued requests to idle workers one at a
   time.  The [cores] field records the machine this ran on: fleet scaling beyond the physical core count measures
   dispatch overhead, not parallel speedup, and the JSON reports
   whatever the machine actually delivered.

   Run with: dune exec bench/serve_bench.exe -- [--out FILE] *)

module Protocol = Serve.Protocol
module Driver = Serve.Driver
module Server = Serve.Server
module Client = Serve.Client

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

let fresh_path =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mirverif-serve-bench-%d-%d%s" (Unix.getpid ()) !n suffix)

(* The benchmark request: --quick, body lints only — small enough that
   the serving machinery, not the proof content, dominates the warm
   path. *)
let payload seed =
  Printf.sprintf {|{"op":"verify","quick":true,"seed":%d,"lints":"body"}|} seed

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

let with_daemon ~fleet f =
  let socket = fresh_path ".sock" in
  let cache_dir = fresh_path ".cache" in
  match Unix.fork () with
  | 0 ->
      (try
         Server.serve
           {
             Server.socket;
             fleet;
             cache_dir = Some cache_dir;
             jobs = 1;
             retries = 2;
             timeout_ms = 0;
             prewarm = false;
           }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Client.shutdown ~socket) with _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          rm_rf cache_dir)
        (fun () ->
          if not (Client.wait_ready ~attempts:200 ~socket ()) then
            failwith "daemon did not come up";
          f socket)

(* ------------------------------------------------------------------ *)
(* Harnesses                                                           *)

let round_trip socket body =
  match Client.request ~socket body with
  | Ok r -> r
  | Error msg -> failwith ("round trip failed: " ^ msg)

(* Pipelined throughput: [conns] connections, [depth] requests written
   per connection per round, [rounds] rounds; responses drained with
   select between writes so the dispatcher never blocks on a full
   client socket.  Returns requests per second. *)
let throughput ~socket ~conns ~depth ~rounds body =
  let fds =
    Array.init conns (fun _ ->
        match Client.connect socket with Ok fd -> fd | Error m -> failwith m)
  in
  let readers = Array.map (fun _ -> Protocol.Reader.create ()) fds in
  let got = ref 0 in
  let total = conns * depth * rounds in
  let chunk = Bytes.create 65536 in
  let drain timeout =
    match Unix.select (Array.to_list fds) [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let i = ref 0 in
            Array.iteri (fun j f -> if f = fd then i := j) fds;
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "daemon closed a benchmark connection"
            | n ->
                Protocol.Reader.feed readers.(!i) (Bytes.sub_string chunk 0 n);
                let rec frames () =
                  match Protocol.Reader.next readers.(!i) with
                  | `Frame _ ->
                      incr got;
                      frames ()
                  | `More -> ()
                  | `Oversized _ -> failwith "oversized response"
                in
                frames ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let (), wall =
    time (fun () ->
        for _ = 1 to rounds do
          Array.iter
            (fun fd ->
              for _ = 1 to depth do
                Protocol.write_frame fd body
              done)
            fds;
          drain 0.0
        done;
        while !got < total do
          drain 0.5
        done)
  in
  Array.iter Unix.close fds;
  float_of_int total /. wall

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Sequential round-trip latency over one connection per request. *)
let latencies ~socket ~n body =
  let samples =
    Array.init n (fun _ ->
        let _, dt = time (fun () -> round_trip socket body) in
        dt)
  in
  Array.sort compare samples;
  (percentile samples 0.50, percentile samples 0.99)

(* ------------------------------------------------------------------ *)

type fleet_point = {
  fp_fleet : int;
  fp_cold_s : float;  (* first evaluation of a never-seen request *)
  fp_warm_rps : float;
  fp_p50_s : float;
  fp_p99_s : float;
}

let measure_fleet fleet =
  with_daemon ~fleet (fun socket ->
      (* cold: a request the daemon has never seen — plan build + full
         execution, proof cache empty *)
      let _, cold_s = time (fun () -> round_trip socket (payload 9001)) in
      let body = payload 9001 in
      (* warm every worker: the pipelined harness spreads requests over
         the fleet; the first pass promotes each worker through
         L2 (shared packs) to its L0 response memo *)
      ignore (throughput ~socket ~conns:8 ~depth:2 ~rounds:5 body);
      let warm_rps = throughput ~socket ~conns:16 ~depth:2 ~rounds:25 body in
      let p50, p99 = latencies ~socket ~n:100 body in
      { fp_fleet = fleet; fp_cold_s = cold_s; fp_warm_rps = warm_rps;
        fp_p50_s = p50; fp_p99_s = p99 })

(* Execute-bound scaling: [n] distinct never-seen requests submitted
   concurrently, so every one compiles a plan and runs its proofs.
   This is the workload fleet parallelism exists for — on a multi-core
   host the wall divides across workers; on a single core it measures
   the (small) cost of splitting the work across processes. *)
let distinct_cold_wall ~fleet ~n =
  with_daemon ~fleet (fun socket ->
      let fds =
        Array.init n (fun _ ->
            match Client.connect socket with Ok fd -> fd | Error m -> failwith m)
      in
      let chunk = Bytes.create 65536 in
      let readers = Array.map (fun _ -> Protocol.Reader.create ()) fds in
      let got = ref 0 in
      let (), wall =
        time (fun () ->
            Array.iteri
              (fun i fd -> Protocol.write_frame fd (payload (9100 + i)))
              fds;
            while !got < n do
              match Unix.select (Array.to_list fds) [] [] 1.0 with
              | readable, _, _ ->
                  List.iter
                    (fun fd ->
                      let i = ref 0 in
                      Array.iteri (fun j f -> if f = fd then i := j) fds;
                      match Unix.read fd chunk 0 (Bytes.length chunk) with
                      | 0 -> failwith "daemon closed a benchmark connection"
                      | r ->
                          Protocol.Reader.feed readers.(!i)
                            (Bytes.sub_string chunk 0 r);
                          let rec frames () =
                            match Protocol.Reader.next readers.(!i) with
                            | `Frame _ ->
                                incr got;
                                frames ()
                            | `More -> ()
                            | `Oversized _ -> failwith "oversized response"
                          in
                          frames ())
                    readable
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done)
      in
      Array.iter Unix.close fds;
      wall)

let () =
  let out = ref "BENCH_serve.json" in
  Array.iteri
    (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cores = Domain.recommended_domain_count () in
  let fleet_points = List.map measure_fleet [ 1; 2; 4 ] in
  let distinct_n = 6 in
  let distinct =
    List.map (fun fleet -> (fleet, distinct_cold_wall ~fleet ~n:distinct_n)) [ 1; 4 ]
  in
  let point n = List.nth fleet_points n in
  let f4_vs_f1 = (point 2).fp_warm_rps /. (point 0).fp_warm_rps in
  let warm_best =
    List.fold_left (fun acc p -> Float.max acc p.fp_warm_rps) 0.0 fleet_points
  in
  let oc = open_out !out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"serve\",\n";
  p "  \"quick\": true,\n";
  p "  \"cores\": %d,\n" cores;
  p "  \"request\": \"quick tiny, body lints\",\n";
  p "  \"fleet_points\": [\n";
  List.iteri
    (fun i fp ->
      p
        "    {\"fleet\": %d, \"cold_first_request_s\": %g, \"warm_rps\": %g, \
         \"warm_p50_s\": %g, \"warm_p99_s\": %g}%s\n"
        fp.fp_fleet fp.fp_cold_s fp.fp_warm_rps fp.fp_p50_s fp.fp_p99_s
        (if i = List.length fleet_points - 1 then "" else ","))
    fleet_points;
  p "  ],\n";
  p "  \"distinct_cold\": [\n";
  List.iteri
    (fun i (fleet, wall) ->
      p "    {\"fleet\": %d, \"requests\": %d, \"wall_s\": %g}%s\n" fleet
        distinct_n wall
        (if i = List.length distinct - 1 then "" else ","))
    distinct;
  p "  ],\n";
  let d1 = List.assoc 1 distinct and d4 = List.assoc 4 distinct in
  p "  \"fleet4_vs_fleet1_distinct_cold\": %g,\n" (d1 /. d4);
  p "  \"warm_rps_best\": %g,\n" warm_best;
  p "  \"fleet4_vs_fleet1_warm\": %g\n" f4_vs_f1;
  p "}\n";
  close_out oc;
  Printf.printf
    "serve bench: cores=%d warm_rps fleet1=%.0f fleet2=%.0f fleet4=%.0f \
     (f4/f1 %.2fx), cold first request %.3fs -> %s\n"
    cores (point 0).fp_warm_rps (point 1).fp_warm_rps (point 2).fp_warm_rps
    f4_vs_f1 (point 0).fp_cold_s !out
