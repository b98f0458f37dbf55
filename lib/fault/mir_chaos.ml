open Hyperenclave
module Interp = Mir.Interp
module Report = Mirverif.Report

(* Chaos runs execute through the closure-compiled executor, like the
   code-proof hot path it is meant to stress: a perturbed environment
   only rewraps primitives (names unchanged), so compiling it against
   the shared memo in [Layers.compile_memo] reuses every compiled body
   and only builds the link tables that bind them to its primitives. *)
let ccall ?fuel env ~abs ~mem fn args =
  Mir.Compile.call ?fuel (Mir.Compile.compile ~cache:Layers.compile_memo env) ~abs ~mem fn args

let u64 = Marshal_v.u64

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

type outcome = { target : string; prim_calls : int; injections : int }

(* Wrap every primitive so the [n]th call across the execution fails
   with a recognizable message (n < 0 never fires: pure counting). *)
let perturbed_env ~fail_at env =
  let count = ref 0 in
  let env =
    Interp.map_prims
      (fun p ->
        {
          p with
          Interp.prim_exec =
            (fun abs args ->
              let k = !count in
              incr count;
              if k = fail_at then Error "injected transient fault"
              else p.Interp.prim_exec abs args);
        })
      env
  in
  (env, count)

(* The battery: functions spanning the stack, from the allocator up to
   the hypercall layer, each with arguments that drive a nontrivial
   (primitive-calling) execution. *)
let targets (layout : Layout.t) =
  let page i =
    Int64.mul (Int64.of_int (Geometry.page_size layout.Layout.geom)) (Int64.of_int i)
  in
  let booted = Boot.booted layout in
  let o =
    Hypercall.create booted ~elrange_base:0L ~elrange_pages:2 ~mbuf_va:(page 8)
  in
  let gpt_root =
    match Absdata.find_enclave o.Hypercall.d o.Hypercall.value with
    | Ok e -> Int64.of_int e.Enclave.gpt_root
    | Error _ -> 0L
  in
  let flags = Flags.encode layout.Layout.geom Flags.user_rw in
  [
    ("frame_alloc", booted, [], 20);
    ("create_table", booted, [], 50);
    ("walk", o.Hypercall.d, [ u64 gpt_root; u64 (page 8) ], 100);
    ( "map_page",
      o.Hypercall.d,
      [ u64 gpt_root; u64 0L; u64 layout.Layout.epc_base; u64 flags ],
      200 );
    ("query", o.Hypercall.d, [ u64 gpt_root; u64 (page 8) ], 100);
    ("hc_create", booted, [ u64 0L; u64 2L; u64 (page 8) ], 1000);
  ]

let graceful ~case report result =
  match result with
  | Ok (_ : Absdata.t Interp.outcome) -> Report.add_pass report
  | Error (Interp.Fault _ | Interp.Assert_failed _ | Interp.Out_of_fuel) ->
      Report.add_pass report
  | exception exn ->
      Report.add_failure report ~case
        ~reason:("exception escaped the interpreter: " ^ Printexc.to_string exn)

let run ?(seed = 0) layout =
  ignore seed;
  let report = ref (Report.empty "mir-level fault injection") in
  let outcomes =
    List.map
      (fun (fn, abs, args, fuel_hi) ->
        let layer =
          match Layers.layer_of_function layout fn with
          | Some l -> l
          | None -> "Hypercalls"
        in
        let env = Layers.env_for layout ~layer in
        (* unperturbed run: count the primitive calls *)
        let counting, count = perturbed_env ~fail_at:(-1) env in
        let baseline = ccall counting ~abs ~mem:Mir.Mem.empty fn args in
        report := graceful ~case:(fn ^ " baseline") !report baseline;
        let prim_calls = !count in
        (* fail each primitive call in turn: the failure must surface
           as a structured Fault naming the injection *)
        let injections = ref 0 in
        for i = 0 to prim_calls - 1 do
          incr injections;
          let env, _ = perturbed_env ~fail_at:i env in
          let case = Printf.sprintf "%s prim-fault@%d" fn i in
          match ccall env ~abs ~mem:Mir.Mem.empty fn args with
          | Ok _ ->
              report :=
                Report.add_failure !report ~case
                  ~reason:"injected primitive failure vanished (call succeeded)"
          | Error (Interp.Fault { msg; _ }) ->
              if contains msg "injected" then report := Report.add_pass !report
              else
                report :=
                  Report.add_failure !report ~case
                    ~reason:("fault does not name the injection: " ^ msg)
          | Error (Interp.Assert_failed _ | Interp.Out_of_fuel) ->
              report := Report.add_pass !report
          | exception exn ->
              report :=
                Report.add_failure !report ~case
                  ~reason:
                    ("exception escaped the interpreter: "
                   ^ Printexc.to_string exn)
        done;
        (* fuel ladder: starvation anywhere must yield Out_of_fuel *)
        let fuel = ref 1 in
        while !fuel <= fuel_hi do
          incr injections;
          let case = Printf.sprintf "%s fuel=%d" fn !fuel in
          (match ccall ~fuel:!fuel env ~abs ~mem:Mir.Mem.empty fn args with
          | Ok _ | Error Interp.Out_of_fuel -> report := Report.add_pass !report
          | Error (Interp.Fault _ | Interp.Assert_failed _) ->
              report := Report.add_pass !report
          | exception exn ->
              report :=
                Report.add_failure !report ~case
                  ~reason:
                    ("exception escaped the interpreter: "
                   ^ Printexc.to_string exn));
          fuel := !fuel * 3
        done;
        { target = fn; prim_calls; injections = !injections })
      (targets layout)
  in
  (!report, outcomes)
