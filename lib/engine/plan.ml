open Hyperenclave
module Report = Mirverif.Report

type mc_request = {
  mc_depth : int;
  mc_por : bool;
  mc_flush : bool;
  mc_layout : Layout.t;
}

type absint_tables = {
  interval : Analysis.Interval_lint.A.table;
  secret_flow : Analysis.Secret_flow.A.table;
}

type t = {
  dag : Dag.t;
  layout : Layout.t;
  seed : int;
  quick : bool;
  security : bool;
  lints : Analysis.Lint.kind list;
  model_check : mc_request option;
  override_counts : (string * int) list;
  corpus : Check.Gen.Corpus.t;
  absint_tables : absint_tables;
}

let phases =
  [
    "analysis";
    "absint";
    "borrow";
    "alias";
    "code-proofs";
    "refinement";
    "invariants";
    "noninterference";
    "trace-ni";
    "attacks";
    "model-check";
  ]

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

let geometry_fp (g : Geometry.t) =
  Printf.sprintf "geom{levels=%d;index_bits=%d;page_shift=%d;fb=%d,%d,%d,%d}"
    g.Geometry.levels g.Geometry.index_bits g.Geometry.page_shift g.Geometry.fb_present
    g.Geometry.fb_write g.Geometry.fb_user g.Geometry.fb_huge

let layout_fp (l : Layout.t) =
  Printf.sprintf
    "%s;layout{normal=%Lx+%d;mbuf=%Lx+%d;monitor=%Lx+%d;frames=%Lx+%d;epc=%Lx+%d}"
    (geometry_fp l.Layout.geom) l.Layout.normal_base l.Layout.normal_pages l.Layout.mbuf_base
    l.Layout.mbuf_pages l.Layout.monitor_base l.Layout.monitor_pages l.Layout.frame_base
    l.Layout.frame_count l.Layout.epc_base l.Layout.epc_pages

(* ------------------------------------------------------------------ *)
(* Per-obligation RNG streams                                          *)

(* A distinct deterministic stream per obligation, split from the run
   seed and a stable obligation tag: results cannot depend on which
   worker picks the obligation up or in what order. *)
let stream_seed ~seed tag =
  let h = ref seed in
  String.iter (fun c -> h := (!h * 131) + Char.code c) tag;
  let w, _ = Check.Rng.next (Check.Rng.make !h) in
  Int64.to_int (Int64.logand w 0x3FFF_FFFFL)

(* ------------------------------------------------------------------ *)
(* Per-function lint phases (3 and 3c)                                 *)

(* One dependency-free obligation per function per layer, id
   [<phase>/<layer>/<fn>].  Deliberately independent of layout geometry
   and of other bodies: the lints read exactly one function's MIRlight,
   so the fingerprint is the lint selection and that body's digest, and
   the cache entry survives anything that doesn't change it. *)
let per_function_obligations ~phase ~version ~lints layout check =
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  let lint_tags = String.concat "," (List.map Analysis.Lint.to_string lints) in
  List.concat_map
    (fun lname ->
      List.map
        (fun fn ->
          let id = Printf.sprintf "%s/%s/%s" phase lname fn in
          let fingerprint =
            Printf.sprintf "%s;lints=%s;layer=%s;fn=%s;mir=%s" version lint_tags
              lname fn (Layers.body_digest layout fn)
          in
          Obligation.v ~id ~phase ~deps:[] ~fingerprint (fun () ->
              match Mir.Syntax.find_body program fn with
              | Some body ->
                  let report, findings = check ~layer:lname ~fn body in
                  Obligation.outcome
                    ~findings:(List.map (fun f -> (fn, f)) findings)
                    [ report ]
              | None ->
                  Obligation.outcome
                    [
                      Report.add_failure (Report.empty fn) ~case:fn
                        ~reason:"layer lists a function with no MIRlight body";
                    ]))
        (Layers.functions_of_layer layout lname))
    Mem_spec.layer_names

(* The accessor relation for the encapsulation lint: a handle of layer
   L may flow to L's own functions and to the trusted primitives (the
   getter/setter set every layer's RData is reached through). *)
let handle_accessor layout =
  let trusted =
    List.map (fun (s : Absdata.t Mirverif.Spec.t) -> s.Mirverif.Spec.name) Trusted.all
  in
  fun ~owner ~callee ->
    List.mem callee trusted || Layers.layer_of_function layout callee = Some owner

let analysis_obligations ?(lints = Analysis.Lint.all) layout =
  let accessor = handle_accessor layout in
  let body_lints = Analysis.Pass.body_lints lints in
  per_function_obligations ~phase:"analysis" ~version:"mirlight-analysis-v1"
    ~lints:body_lints layout (fun ~layer ~fn body ->
      let cfg = { Analysis.Pass.fn_layer = Some layer; accessor; lints = body_lints } in
      let findings = Analysis.Pass.analyze cfg body in
      (Analysis.Pass.report ~name:fn ~lints:body_lints findings, findings))

let borrow_obligations ?(lints = Analysis.Lint.catalogue) layout =
  let selected = List.filter (fun k -> List.mem k Analysis.Lint.borrow) lints in
  if selected = [] then []
  else
    per_function_obligations ~phase:"borrow" ~version:"mirlight-borrow-v1"
      ~lints:selected layout (fun ~layer:_ ~fn body ->
        let report, findings, _stats =
          Analysis.Borrow_lint.check ~lints:selected ~name:fn body
        in
        (report, findings))

(* ------------------------------------------------------------------ *)
(* Per-SCC lint phases (3b and 3d)                                     *)

(* One report per SCC obligation: a pass per analyzed function and per
   discharge certificate, a failure per [Error] finding. *)
let scc_report ~name ~functions findings =
  let rep =
    List.fold_left
      (fun rep (fn, (f : Analysis.Lint.finding)) ->
        match f.Analysis.Lint.severity with
        | Analysis.Lint.Info -> Report.add_pass rep
        | Analysis.Lint.Error ->
            Report.add_failure rep
              ~case:
                (Printf.sprintf "%s %s@%s"
                   (Analysis.Lint.to_string f.Analysis.Lint.kind)
                   fn f.Analysis.Lint.where)
              ~reason:f.Analysis.Lint.detail)
      (Report.empty name) findings
  in
  List.fold_left (fun rep _ -> Report.add_pass rep) rep functions

(* One obligation per call-graph SCC per [(domain, prefix, check)],
   id [<phase>/<domain>/<scc>].  Summaries flow callees-first, so an
   SCC's verdict depends on (and its obligation waits for) the
   same-domain obligations of its callee SCCs, and its fingerprint is
   [prefix] plus the MIRlight digests of the SCC's transitive callee
   closure: editing a function invalidates exactly its SCC and the
   SCCs above it. *)
let scc_obligations ~phase layout domains =
  let cg = Analysis.Callgraph.build (Layers.compiled layout).Rustlite.Pipeline.program in
  let sccs = Array.of_list (Analysis.Callgraph.sccs cg) in
  let scc_name members = String.concat "+" members in
  List.concat_map
    (fun (domain, prefix, check) ->
      let id_of members = Printf.sprintf "%s/%s/%s" phase domain (scc_name members) in
      List.map
        (fun members ->
          let id = id_of members in
          let deps =
            List.map (fun i -> id_of sccs.(i)) (Analysis.Callgraph.callee_sccs cg members)
          in
          let mir =
            String.concat ","
              (List.map
                 (fun fn -> fn ^ "=" ^ Layers.body_digest layout fn)
                 (Analysis.Callgraph.reachable cg members))
          in
          let fingerprint =
            Printf.sprintf "%s;scc=%s;mir=%s" prefix (scc_name members) mir
          in
          Obligation.v ~id ~phase ~deps ~fingerprint (fun () ->
              let findings = check members in
              Obligation.outcome ~findings
                [ scc_report ~name:id ~functions:members findings ]))
        (Array.to_list sccs))
    domains

let absint_version = "mirlight-absint-v1"

let absint_tables () =
  {
    interval = Analysis.Interval_lint.A.create_table ();
    secret_flow = Analysis.Secret_flow.A.create_table ();
  }

(* Each domain's obligations share one summary table, which fills only
   as they execute and leaves every outcome that of a fresh context
   (see [Analysis.Absint.Make.run]), so fingerprints need not mention
   it. *)
let absint_obligations ?(lints = Analysis.Lint.catalogue) ?(tables = absint_tables ())
    layout =
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  (* the taint verdict additionally depends on the layout (the
     secret/sink policy is derived from it); intervals don't, so their
     entries survive layout changes that leave the reachable MIR alone *)
  let interval =
    ( "interval",
      Printf.sprintf "%s;domain=interval" absint_version,
      fun members ->
        fst (Analysis.Interval_lint.check ~table:tables.interval program ~funcs:members) )
  and secret_flow =
    ( "secret-flow",
      Printf.sprintf "%s;domain=secret-flow;%s" absint_version (layout_fp layout),
      fun members ->
        fst
          (Analysis.Secret_flow.check ~table:tables.secret_flow
             (Security.Labels.secret_flow_config layout program)
             ~funcs:members) )
  in
  let domains =
    (if List.mem Analysis.Lint.Interval_bounds lints then [ interval ] else [])
    @ if List.mem Analysis.Lint.Secret_flow lints then [ secret_flow ] else []
  in
  if domains = [] then [] else scc_obligations ~phase:"absint" layout domains

let alias_obligations ?(lints = Analysis.Lint.catalogue) layout =
  if not (List.mem Analysis.Lint.Alias_footprint lints) then []
  else
    let cfg =
      {
        Analysis.Alias_lint.program = (Layers.compiled layout).Rustlite.Pipeline.program;
        prim = Check.Code_proof.prim_summary;
        fn_layer = Layers.layer_of_function layout;
        accessor = handle_accessor layout;
      }
    in
    (* footprints substitute callee summaries actual-for-formal, like
       absint; the discharge side consults the layer map and interval
       reachability, both layout-derived, so the layout is a
       fingerprint ingredient like secret-flow's.  Every SCC reads the
       layout's one summary map inside its closure, so a warm run
       computes none. *)
    scc_obligations ~phase:"alias" layout
      [
        ( "points-to",
          Printf.sprintf "mirlight-alias-v1;%s" (layout_fp layout),
          fun members ->
            fst
              (Analysis.Alias_lint.check cfg
                 ~infos:(Check.Code_proof.alias_summaries layout)
                 ~funcs:members) );
      ]

(* ------------------------------------------------------------------ *)
(* Phase 4: per-function code proofs                                   *)

let code_proof_id ~layer fn = Printf.sprintf "code-proof/%s/%s" layer fn
let code_proof_version = "code-proof-compose-v1"

(* A battery's result for [fn]; a function no spec owns fails. *)
let code_proof_outcome fn = function
  | Some (_, report) -> Obligation.outcome [ report ]
  | None ->
      Obligation.outcome
        [ Report.add_failure (Report.empty fn) ~case:fn ~reason:"no spec owns this function" ]

(* Override-composed code proofs.  Dependency edges follow the call
   graph — a caller waits on exactly the spec-owned functions it calls
   directly, because those are the specs its composed run executes —
   and fingerprints digest only (own body + directly-used callee
   specs), so editing one function invalidates exactly itself and its
   direct callers.  The composed executor is gated on the callees
   actually being proven: each callee obligation marks itself in the
   [proven] set from the pool's [on_outcome] hook (which fires on
   live, crashed, and cached completion paths alike, before dependents
   are released), and a caller whose gate is closed — e.g. a callee
   quarantined by engine chaos — falls back to the monolithic battery
   rather than assuming an unproven spec.  Both executors produce
   identical verdicts (pinned by the differential suite), so the
   choice is invisible to reports, stdout, and the cache. *)
let code_proof_obligations ?(seed = 2024) layout =
  let ctx = Check.Code_proof.ctx ~seed layout in
  let base_fp = Printf.sprintf "%s;seed=%d" (layout_fp layout) seed in
  let proven : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let mark fn (o : Obligation.outcome) =
    if Obligation.failure_count o = 0 then Hashtbl.replace proven fn ()
  in
  let is_proven fn = Hashtbl.mem proven fn in
  List.filter_map
    (fun lname ->
      let fns = Layers.functions_of_layer layout lname in
      if fns = [] then None
      else
        Some
          ( lname,
            List.map
              (fun fn ->
                let id = code_proof_id ~layer:lname fn in
                let callees = Layers.callees layout fn in
                let stubs = Layers.same_layer_callees layout fn in
                let uses =
                  String.concat ","
                    (List.map
                       (fun g -> g ^ "=" ^ Layers.body_digest layout g)
                       (List.sort String.compare callees))
                in
                let fingerprint =
                  Printf.sprintf "%s;%s;fn=%s;own=%s;uses=%s" code_proof_version
                    base_fp fn (Layers.body_digest layout fn) uses
                in
                let deps =
                  List.filter_map
                    (fun g ->
                      Option.map
                        (fun gl -> code_proof_id ~layer:gl g)
                        (Layers.layer_of_function layout g))
                    callees
                in
                let outcome_of = code_proof_outcome fn in
                (* degradation ladder: when the compiled-closure battery
                   crashes, the supervisor re-discharges the obligation
                   under the reference interpreter, over the same cases *)
                Obligation.v ~id ~phase:"code-proofs" ~deps ~fingerprint
                  ~fallback:(fun () ->
                    outcome_of (Check.Code_proof.run_function_interp ctx fn))
                  ~on_outcome:(mark fn)
                  (fun () ->
                    if stubs <> [] && List.for_all is_proven stubs then
                      outcome_of (Check.Code_proof.run_function_composed ctx fn)
                    else outcome_of (Check.Code_proof.run_function ctx fn)))
              fns ))
    Mem_spec.layer_names

(* Per-function same-layer stub counts: the number of call-graph edges
   override composition replaces with spec stubs.  Deterministic
   in the layout alone, reported through [--json-out]. *)
let override_counts layout =
  List.concat_map
    (fun lname ->
      List.map
        (fun fn ->
          (fn, List.length (Layers.same_layer_callees layout fn)))
        (Layers.functions_of_layer layout lname))
    Mem_spec.layer_names

let function_layer_ids obls_by_layer lname =
  match List.assoc_opt lname obls_by_layer with
  | Some obls -> List.map (fun (o : Obligation.t) -> o.Obligation.id) obls
  | None -> []

let last_layer_ids obls_by_layer =
  match List.rev obls_by_layer with
  | (_, obls) :: _ -> List.map (fun (o : Obligation.t) -> o.Obligation.id) obls
  | [] -> []

(* ------------------------------------------------------------------ *)
(* Phase 4: flat/tree refinement simulation, sharded                   *)

let refinement_trials ~quick = if quick then 20 else 50
let refinement_shards = 10

(* One shard: [trials] random lock-step op sequences applied to both
   views, R checked throughout — the sequential phase 4 body with an
   explicit RNG stream. *)
let run_refinement_shard layout ~stream ~trials =
  let rng = ref (Check.Rng.make stream) in
  let page i =
    Int64.mul (Int64.of_int (Geometry.page_size layout.Layout.geom)) (Int64.of_int i)
  in
  let report = ref (Report.empty "flat/tree simulation (R)") in
  for trial = 1 to trials do
    (* trial boundaries are this battery's cancellation points *)
    Mirverif.Cancel.poll ();
    let d = Absdata.create layout in
    match Pt_flat.create_table d with
    | Error msg -> report := Report.add_failure !report ~case:"create" ~reason:msg
    | Ok (d, root) -> (
        match Pt_refine.abstract d ~root with
        | Error msg -> report := Report.add_failure !report ~case:"abstract" ~reason:msg
        | Ok tree ->
            let d = ref d and tree = ref tree in
            let okay = ref true in
            for _ = 1 to 20 do
              if !okay then begin
                let kind, r1 = Check.Rng.int_below !rng 3 in
                let v, r2 = Check.Rng.int_below r1 16 in
                let p, r3 = Check.Rng.int_below r2 8 in
                rng := r3;
                let va = page v and pa = page p in
                let huge_mask = Int64.lognot (Int64.sub (page 4) 1L) in
                let fr =
                  match kind with
                  | 0 ->
                      ( Pt_flat.map_page !d ~root ~va ~pa Flags.user_rw,
                        Pt_tree.map_page !tree ~va ~pa Flags.user_rw )
                  | 1 -> (Pt_flat.unmap_page !d ~root ~va, Pt_tree.unmap_page !tree ~va)
                  | _ ->
                      ( Pt_flat.map_huge !d ~root ~va:(Int64.logand va huge_mask)
                          ~pa:(Int64.logand pa huge_mask) ~level:2 Flags.user_r,
                        Pt_tree.map_huge !tree ~va:(Int64.logand va huge_mask)
                          ~pa:(Int64.logand pa huge_mask) ~level:2 Flags.user_r )
                in
                match fr with
                | Ok d', Ok tree' ->
                    d := d';
                    tree := tree';
                    if Pt_refine.relate !d ~root !tree then report := Report.add_pass !report
                    else begin
                      okay := false;
                      report :=
                        Report.add_failure !report
                          ~case:(Printf.sprintf "trial %d" trial)
                          ~reason:"R broken after lock-step operation"
                    end
                | Error _, Error _ -> report := Report.add_skip !report
                | Ok _, Error e | Error e, Ok _ ->
                    okay := false;
                    report :=
                      Report.add_failure !report
                        ~case:(Printf.sprintf "trial %d" trial)
                        ~reason:("one view rejected what the other accepted: " ^ e)
              end
            done)
  done;
  !report

let refinement_obligations ~seed ~quick ~deps layout =
  let trials = refinement_trials ~quick in
  let per_shard = max 1 (trials / refinement_shards) in
  let shards = (trials + per_shard - 1) / per_shard in
  List.init shards (fun i ->
      let id = Printf.sprintf "refine/shard-%02d" i in
      let n = min per_shard (trials - (i * per_shard)) in
      let stream = stream_seed ~seed id in
      let fingerprint =
        Printf.sprintf "%s;refine-sim-v1;seed=%d;shard=%d;trials=%d" (layout_fp layout)
          seed i n
      in
      Obligation.v ~id ~phase:"refinement" ~deps ~fingerprint (fun () ->
          Obligation.outcome [ run_refinement_shard layout ~stream ~trials:n ]))

(* ------------------------------------------------------------------ *)
(* Phases 5-8: security obligations (tiny geometry only)               *)

let observers =
  [ Security.Principal.Os; Security.Principal.Enclave 1; Security.Principal.Enclave 2 ]

let inv_steps = 35
let inv_states ~quick = if quick then 8 else 25
let inv_batch_size = 5

let invariant_obligations ~seed ~quick ~deps ~corpus layout =
  let n = inv_states ~quick in
  let batches = (n + inv_batch_size - 1) / inv_batch_size in
  List.init batches (fun b ->
      let lo = b * inv_batch_size and hi = min n ((b + 1) * inv_batch_size) in
      let id = Printf.sprintf "invariants/batch-%02d" b in
      let fingerprint =
        Printf.sprintf "%s;invariants-v1;seed=%d;states=%d..%d;steps=%d" (layout_fp layout)
          seed lo hi inv_steps
      in
      Obligation.v ~id ~phase:"invariants" ~deps ~fingerprint (fun () ->
          let inv, preservation =
            Security.Invariants.check_reachable
              ~states:(Check.Gen.Corpus.states corpus ~lo ~hi)
              ~actions:(Check.Gen.action_battery layout)
          in
          Obligation.outcome [ inv; preservation ]))

let ni_pairs ~quick = if quick then 6 else 15

type lemma = Integrity | Local_consistency | Inactive_consistency

let lemma_tag = function
  | Integrity -> "integrity"
  | Local_consistency -> "local-consistency"
  | Inactive_consistency -> "inactive-consistency"

let noninterference_obligations ~seed ~quick ~deps ~corpus layout =
  let n = ni_pairs ~quick in
  let nstates = inv_states ~quick in
  List.concat_map
    (fun observer ->
      let obs = Security.Principal.to_string observer in
      List.map
        (fun lemma ->
          let id = Printf.sprintf "noninterference/%s/%s" (lemma_tag lemma) obs in
          let fingerprint =
            Printf.sprintf "%s;ni-v1;seed=%d;lemma=%s;observer=%s;pairs=%d;states=%d;steps=%d"
              (layout_fp layout) seed (lemma_tag lemma) obs n nstates inv_steps
          in
          Obligation.v ~id ~phase:"noninterference" ~deps ~fingerprint (fun () ->
              let actions = Check.Gen.action_battery layout in
              let report =
                match lemma with
                | Integrity ->
                    let states = Check.Gen.Corpus.states corpus ~lo:0 ~hi:nstates in
                    Security.Noninterference.check_integrity ~observer ~states ~actions
                | Local_consistency ->
                    let pairs = Check.Gen.Corpus.pairs corpus ~off:0 ~observer ~n in
                    Security.Noninterference.check_local_consistency ~observer ~pairs ~actions
                | Inactive_consistency ->
                    let pairs = Check.Gen.Corpus.pairs corpus ~off:0 ~observer ~n in
                    Security.Noninterference.check_inactive_consistency ~observer ~pairs
                      ~actions
              in
              Obligation.outcome [ report ]))
        [ Integrity; Local_consistency; Inactive_consistency ])
    observers

let trace_ni_schedule_len = 15

let trace_ni_obligations ~seed ~quick ~deps_for ~corpus layout =
  let n_sched = if quick then 5 else 12 in
  let n_pairs = if quick then 5 else 12 in
  List.map
    (fun observer ->
      let obs = Security.Principal.to_string observer in
      let id = Printf.sprintf "trace-ni/%s" obs in
      let fingerprint =
        Printf.sprintf
          "%s;trace-ni-v1;seed=%d;observer=%s;schedules=%d;len=%d;pairs=%d;steps=%d"
          (layout_fp layout) seed obs n_sched trace_ni_schedule_len n_pairs inv_steps
      in
      Obligation.v ~id ~phase:"trace-ni" ~deps:(deps_for obs) ~fingerprint (fun () ->
          let schedules =
            Check.Gen.schedules ~n:n_sched ~len:trace_ni_schedule_len ~seed layout
          in
          let pairs = Check.Gen.Corpus.pairs corpus ~off:1 ~observer ~n:n_pairs in
          Obligation.outcome
            [ Security.Noninterference.check_trace ~observer ~pairs ~schedules ]))
    observers

let attack_obligations ~deps scenarios =
  List.map
    (fun scenario ->
      let name = scenario.Security.Attacks.name in
      let id = Printf.sprintf "attacks/%s" name in
      let fingerprint = Printf.sprintf "attacks-v1;scenario=%s" name in
      Obligation.v ~id ~phase:"attacks" ~deps ~fingerprint (fun () ->
          match Security.Attacks.run scenario with
          | Ok () ->
              let log =
                Printf.sprintf "%-22s %s" name
                  (match scenario.Security.Attacks.expected_violation with
                  | None -> "passes all invariants (as expected)"
                  | Some inv -> "REJECTED by " ^ inv ^ " (as expected)")
              in
              Obligation.outcome ~log
                [ Report.add_pass (Report.empty "attack scenarios (Fig. 5)") ]
          | Error msg ->
              Obligation.outcome
                ~log:(Printf.sprintf "%-22s UNEXPECTED: %s" name msg)
                [
                  Report.add_failure
                    (Report.empty "attack scenarios (Fig. 5)")
                    ~case:name ~reason:msg;
                ]))
    scenarios

(* ------------------------------------------------------------------ *)
(* Phase 11: bounded model checking                                    *)

let mc_report (o : Mc.Explore.outcome) =
  let rep =
    List.fold_left
      (fun rep _ -> Report.add_pass rep)
      (Report.empty "model check") o.Mc.Explore.keys
  in
  List.fold_left
    (fun rep (v : Mc.Explore.violation) ->
      Report.add_failure rep
        ~case:(Printf.sprintf "%s at %s" v.Mc.Explore.v_kind v.Mc.Explore.v_state)
        ~reason:v.Mc.Explore.v_detail)
    rep o.Mc.Explore.violations

(* One obligation explores the request's own layout from boot, so each
   reachable state is visited once.  It is fingerprinted on the layout,
   the universe, the depth bound and the reduction and flush switches,
   and serializes its stats, visited keys and shrunk counterexamples
   into its outcome log for the driver to roll up. *)
let mc_obligations req =
  let cfg =
    Mc.Explore.config ~depth:req.mc_depth ~flush:req.mc_flush ~por:req.mc_por
      req.mc_layout
  in
  [
    Obligation.v ~id:"mc/explore" ~phase:"model-check"
      ~fingerprint:
        (Printf.sprintf "mc-v2;%s;universe=%s;depth=%d;por=%b;flush=%b"
           (layout_fp req.mc_layout)
           (Mc.Universe.digest cfg.Mc.Explore.universe)
           req.mc_depth req.mc_por req.mc_flush)
      (fun () ->
        let o = Mc.Explore.run cfg in
        Obligation.outcome ~log:(Mc.Explore.to_log o) [ mc_report o ]);
  ]

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

let build ?(quick = false) ?(security = true)
    ?(lints = Analysis.Lint.catalogue) ?model_check ~seed layout =
  Layers.warm layout;
  let by_layer = code_proof_obligations ~seed layout in
  let code = List.concat_map snd by_layer in
  let top_ids = last_layer_ids by_layer in
  let pt_ids =
    match function_layer_ids by_layer "PtQuery" with [] -> top_ids | ids -> ids
  in
  let refine = refinement_obligations ~seed ~quick ~deps:pt_ids layout in
  let corpus = Check.Gen.Corpus.create ~seed ~steps:inv_steps layout in
  let security_obls =
    if not security then []
    else begin
      let inv = invariant_obligations ~seed ~quick ~deps:top_ids ~corpus layout in
      let inv_ids = List.map (fun (o : Obligation.t) -> o.Obligation.id) inv in
      let ni = noninterference_obligations ~seed ~quick ~deps:inv_ids ~corpus layout in
      let ni_ids_for obs =
        List.map
          (fun lemma -> Printf.sprintf "noninterference/%s/%s" (lemma_tag lemma) obs)
          [ Integrity; Local_consistency; Inactive_consistency ]
      in
      let tni = trace_ni_obligations ~seed ~quick ~deps_for:ni_ids_for ~corpus layout in
      let att = attack_obligations ~deps:inv_ids Security.Attacks.all in
      inv @ ni @ tni @ att
    end
  in
  let analysis = analysis_obligations ~lints layout in
  let tables = absint_tables () in
  let absint = absint_obligations ~lints ~tables layout in
  let borrow = borrow_obligations ~lints layout in
  let alias = alias_obligations ~lints layout in
  let mc =
    match model_check with
    | None -> []
    | Some req -> mc_obligations req
  in
  let dag =
    Dag.build_exn
      (analysis @ absint @ borrow @ alias @ code @ refine @ security_obls @ mc)
  in
  { dag; layout; seed; quick; security; lints; model_check;
    override_counts = override_counts layout; corpus; absint_tables = tables }

(* ------------------------------------------------------------------ *)
(* Timed build (bench-only shim)                                       *)

let build_memo ?quick ?security ?lints ?model_check ~seed layout =
  let t0 = Clock.now () in
  let plan = build ?quick ?security ?lints ?model_check ~seed layout in
  (plan, false, Clock.now () -. t0)
