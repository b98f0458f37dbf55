(* The verification driver: the one run path from a request to stdout
   and a summary.  [run] serves both the one-shot CLI, which builds a
   [request] from its flags, and the daemon, which decodes one from the
   wire — so a daemon response equals a one-shot run by construction.
   The daemon's part is resident session state and its responses.

   A session keeps two tiers between requests:
   - L2: the content-addressed proof cache ({!Engine.Cache}), shared on
     disk across the whole fleet — a proof computed by one worker
     process is a warm hit for all ({!Engine.Cache.refresh} before each
     request's run, advisory-locked {!Engine.Cache.flush} after).
   - L0: the response replay memo, keyed by the canonical request.  A
     response is recorded only once its run re-executed nothing
     (executed = 0, i.e. pure cache replay): verification content is a
     deterministic function of the request, so replaying the recorded
     bytes is the same principle as a proof-cache hit, one level up —
     and the executed = 0 precondition keeps the replayed summary's
     cache statistics truthful for CI's warm-path assertions.
   Underneath, the process keeps the per-layout memos every request
   shares (compiled layers, spec index, alias summaries).  Each request
   builds its own plan ({!prepare}) and drops it with its run: a plan
   grows by megabytes of case batteries while it runs, and L0 already
   answers a repeated request before it would be built again.

   [handle_one] is the daemon's entry point: one request, one pool
   submission of its plan's own DAG, one response. *)

module Jsonx = Engine.Jsonx

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type mc_spec = { mc_depth : int; mc_por : bool; mc_geometry : string; mc_buggy_tlb : bool }

type request = {
  geometry : string;  (* "tiny" | "x86_64": names the module under proof *)
  seed : int;
  quick : bool;
  lints : Analysis.Lint.kind list;
  mc : mc_spec option;
  source_digest : string option;
      (* optional tenant assertion: refused if the module the daemon
         compiles for this geometry does not digest to this *)
}

let default_request =
  {
    geometry = "tiny";
    seed = 2024;
    quick = false;
    lints = Analysis.Lint.catalogue;
    mc = None;
    source_digest = None;
  }

let lints_string lints = String.concat "," (List.map Analysis.Lint.to_string lints)

let json_of_request r =
  Jsonx.Obj
    ([
       ("op", Jsonx.Str "verify");
       ("geometry", Str r.geometry);
       ("seed", Int r.seed);
       ("quick", Bool r.quick);
       ("lints", Str (lints_string r.lints));
       ( "model_check",
         match r.mc with
         | None -> Null
         | Some m ->
             Obj
               [
                 ("depth", Int m.mc_depth);
                 ("por", Bool m.mc_por);
                 ("geometry", Str m.mc_geometry);
                 ("buggy_tlb", Bool m.mc_buggy_tlb);
               ] );
     ]
    @
    match r.source_digest with
    | None -> []
    | Some d -> [ ("source_digest", Str d) ])

(* Canonical identity of a request — the L0 memo key.  [source_digest]
   is excluded: it is an assertion about the module, not a selection of
   work. *)
let request_key r = Jsonx.to_string (json_of_request { r with source_digest = None })

let ( let* ) = Result.bind

let field j k decode ~default =
  match Jsonx.member k j with
  | None -> Ok default
  | Some Jsonx.Null -> Ok default
  | Some v -> (
      match decode v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad field %S" k))

let request_of_json j : (request, string) result =
  let* op = field j "op" Jsonx.to_string_opt ~default:"verify" in
  let* () = if String.equal op "verify" then Ok () else Error ("unknown op " ^ op) in
  let* geometry = field j "geometry" Jsonx.to_string_opt ~default:"tiny" in
  let* () =
    if List.mem geometry [ "tiny"; "x86_64" ] then Ok ()
    else Error (Printf.sprintf "unknown geometry %S" geometry)
  in
  let* seed = field j "seed" Jsonx.to_int_opt ~default:2024 in
  let* quick = field j "quick" Jsonx.to_bool_opt ~default:false in
  let* lints_s = field j "lints" Jsonx.to_string_opt ~default:"all" in
  let* lints =
    match Analysis.Lint.kinds_of_string lints_s with
    | Ok ks -> Ok ks
    | Error msg -> Error ("bad lints: " ^ msg)
  in
  let* source_digest =
    field j "source_digest" (fun v -> Option.map Option.some (Jsonx.to_string_opt v))
      ~default:None
  in
  let* mc =
    match Jsonx.member "model_check" j with
    | None | Some Jsonx.Null -> Ok None
    | Some m ->
        let* depth = field m "depth" Jsonx.to_int_opt ~default:0 in
        let* () = if depth >= 1 then Ok () else Error "bad model_check depth" in
        let* por = field m "por" Jsonx.to_bool_opt ~default:true in
        let* geometry = field m "geometry" Jsonx.to_string_opt ~default:"tiny" in
        let* () =
          if List.mem geometry [ "tiny"; "tiny3" ] then Ok ()
          else Error (Printf.sprintf "unknown model_check geometry %S" geometry)
        in
        let* buggy_tlb = field m "buggy_tlb" Jsonx.to_bool_opt ~default:false in
        Ok (Some { mc_depth = depth; mc_por = por; mc_geometry = geometry;
                   mc_buggy_tlb = buggy_tlb })
  in
  Ok { geometry; seed; quick; lints; mc; source_digest }

let request_of_string s =
  match Jsonx.parse s with
  | Error msg -> Error msg
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Geometry plumbing                                                   *)

let layout_of_geometry = function
  | "x86_64" -> Hyperenclave.Layout.default Hyperenclave.Geometry.x86_64
  | _ -> Hyperenclave.Layout.default Hyperenclave.Geometry.tiny

let mc_layout_of_geometry = function
  | "tiny3" -> (
      match
        Hyperenclave.Geometry.make ~levels:3 ~index_bits:2 ~fb_present:0
          ~fb_write:1 ~fb_user:2 ~fb_huge:3
      with
      | Ok g -> Hyperenclave.Layout.default g
      | Error _ -> Hyperenclave.Layout.default Hyperenclave.Geometry.tiny)
  | _ -> Hyperenclave.Layout.default Hyperenclave.Geometry.tiny

let mc_request_of (m : mc_spec) : Engine.Plan.mc_request =
  {
    Engine.Plan.mc_depth = max 1 m.mc_depth;
    mc_por = m.mc_por;
    mc_flush = not m.mc_buggy_tlb;
    mc_layout = mc_layout_of_geometry m.mc_geometry;
  }

(* Module digest per geometry, memoized: what the daemon reports back
   and checks tenant [source_digest] assertions against. *)
let source_digests : (string, string) Hashtbl.t = Hashtbl.create 4
let source_digest_mu = Mutex.create ()

let source_digest_of geometry =
  Mutex.lock source_digest_mu;
  let d =
    match Hashtbl.find_opt source_digests geometry with
    | Some d -> d
    | None ->
        let d =
          Digest.to_hex
            (Digest.string
               (Hyperenclave.Mem_source.source (layout_of_geometry geometry)))
        in
        Hashtbl.replace source_digests geometry d;
        d
  in
  Mutex.unlock source_digest_mu;
  d

(* ------------------------------------------------------------------ *)
(* Session                                                             *)

type session = {
  cache : Engine.Cache.t option;
  jobs : int;
  retries : int;
  timeout_ms : int;
  replay : (string, string) Hashtbl.t;  (* L0: request_key -> response bytes *)
  replay_order : string Queue.t;
  mutable replays : int;  (* responses served from L0 (diagnostics) *)
}

let replay_capacity = 64

let session ?cache_dir ?(jobs = 1) ?(retries = 2) ?(timeout_ms = 0) () =
  if retries < 0 then invalid_arg "Driver.session: retries must be at least 0";
  if timeout_ms < 0 then invalid_arg "Driver.session: timeout_ms must be at least 0";
  {
    cache = Option.map (fun dir -> Engine.Cache.create ~dir) cache_dir;
    jobs = max 1 jobs;
    retries;
    timeout_ms;
    replay = Hashtbl.create replay_capacity;
    replay_order = Queue.create ();
    replays = 0;
  }

let error_response msg =
  Jsonx.to_string (Jsonx.Obj [ ("ok", Jsonx.Bool false); ("error", Str msg) ])

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

type prepared = {
  p_req : request;
  p_key : string;
  p_plan : Engine.Plan.t;
  p_hit : bool;  (* always false: no plan outlives its request *)
  p_build_s : float;
}

let prepare req =
  let layout = layout_of_geometry req.geometry in
  let security = req.geometry <> "x86_64" in
  let model_check = Option.map mc_request_of req.mc in
  let t0 = Engine.Clock.now () in
  let plan =
    Engine.Plan.build ~quick:req.quick ~security ~lints:req.lints ?model_check
      ~seed:req.seed layout
  in
  { p_req = req; p_key = request_key req; p_plan = plan; p_hit = false;
    p_build_s = Engine.Clock.now () -. t0 }

let remember session key response =
  if not (Hashtbl.mem session.replay key) then begin
    Hashtbl.replace session.replay key response;
    Queue.add key session.replay_order;
    if Queue.length session.replay_order > replay_capacity then
      Hashtbl.remove session.replay (Queue.take session.replay_order)
  end

(* What one run of a prepared request produced.  The summary is built
   only when it is read: a one-shot run without --json-out needs none. *)
type run_result = {
  stdout : string;
  failures : int;
  execs : Engine.Pool.exec list;
  stats : Engine.Pool.stats;
  summary : Jsonx.t Lazy.t;
}

(* The one run path: a one-shot run and a daemon response are both this
   function's output.  It runs the plan's DAG on the pool, then prints
   phases 1-9, the one-shot [chaos] phase, the model check and the
   verdict.  [engine_chaos] goes into the supervisor config (which arms
   the cache hooks too) and skews the clock; verification content never
   reads the clock, so stdout is untouched. *)
let run ?chaos ?engine_chaos session p =
  let plan = p.p_plan in
  let sup =
    {
      Engine.Supervisor.default with
      retries = session.retries;
      timeout =
        (if session.timeout_ms = 0 then None
         else Some (float_of_int session.timeout_ms /. 1000.));
      seed = p.p_req.seed;
      chaos = engine_chaos;
    }
  in
  let run_pool () =
    Engine.Pool.run_with_stats ?cache:session.cache ~sup ~jobs:session.jobs
      plan.Engine.Plan.dag
  in
  let execs, stats =
    match engine_chaos with
    | Some ch -> Engine.Clock.with_source (Engine.Engine_chaos.skewed_source ch) run_pool
    | None -> run_pool ()
  in
  let failures = ref 0 in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Render.prelude ppf ~failures plan.Engine.Plan.layout;
  Render.engine_results ppf ~failures ~security:plan.Engine.Plan.security execs;
  Option.iter (fun print -> print ppf ~failures) chaos;
  Option.iter
    (fun req -> Render.model_check ppf ~failures req execs)
    plan.Engine.Plan.model_check;
  Render.verdict ppf !failures;
  Format.pp_print_flush ppf ();
  let failures = !failures in
  (* read now: the pool's flush is the run's last cache write *)
  let cache_write_failures =
    match session.cache with None -> 0 | Some c -> Engine.Cache.write_failure_count c
  in
  let summary =
    lazy
      (Summary.summary_json ~failures ~jobs:session.jobs
         ~cache_enabled:(session.cache <> None)
         ~sup_totals:
           (Engine.Supervisor.totals
              (List.map (fun (e : Engine.Pool.exec) -> e.trail) execs))
         ~stats ~cache_write_failures ~engine_chaos
         ~model_check:plan.Engine.Plan.model_check ~plan ~plan_build_s:p.p_build_s
         ~plan_cache_hit:p.p_hit execs)
  in
  { stdout = Buffer.contents buf; failures; execs; stats; summary }

(* Run one prepared request as its own pool submission and answer it.
   A response whose run re-executed nothing is recorded in L0. *)
let verify_one session p =
  Option.iter (fun c -> ignore (Engine.Cache.refresh c)) session.cache;
  let r = run session p in
  let response =
    Jsonx.to_string
      (Jsonx.Obj
         [
           ("ok", Jsonx.Bool true);
           ("module_digest", Str (source_digest_of p.p_req.geometry));
           ("status", Int (if r.failures = 0 then 0 else 1));
           ("summary", Lazy.force r.summary);
           ("stdout", Str r.stdout);
         ])
  in
  if Summary.count_cache r.execs Engine.Pool.Hit = List.length r.execs then
    remember session p.p_key response;
  response

(* Each request of the list in turn, answered with its canonical key. *)
let verify_prepared session prepared =
  List.map (fun p -> (p.p_key, verify_one session p)) prepared

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

(* [handle_one session payload] decodes the payload, checks the tenant's
   source digest, replays an L0 hit, and otherwise verifies.  A
   malformed payload yields an error response; nothing raises. *)
let handle_one session payload =
  match request_of_string payload with
  | Error msg -> error_response ("bad request: " ^ msg)
  | Ok { source_digest = Some d; geometry; _ }
    when not (String.equal d (source_digest_of geometry)) ->
      error_response
        (Printf.sprintf "source digest mismatch: module for geometry %s is %s"
           geometry (source_digest_of geometry))
  | Ok req -> (
      match Hashtbl.find_opt session.replay (request_key req) with
      | Some response ->
          session.replays <- session.replays + 1;
          response
      | None -> verify_one session (prepare req))
