(* Tests of the verification harness itself: the 49-function
   conformance run, the MIR blocks its case batteries leave unentered,
   the low/high refinement for page tables, and mutation tests proving
   the checks can actually fail. *)

open Hyperenclave
module Report = Mirverif.Report

let layout = Layout.default Geometry.tiny

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* The compiled module and the layer stack                             *)

let test_compiles_49_functions () =
  let out = Layers.compiled layout in
  (* 49 paper-scope functions (Sec. 6) + the EREMOVE extension *)
  Alcotest.(check int) "49 + 1 verified functions" 50
    (List.length out.Rustlite.Pipeline.function_names);
  Alcotest.(check int) "15 layers" 15 Layers.layer_count

let test_stratified () =
  Alcotest.(check int) "no upcalls" 0 (List.length (Layers.stratification_ok layout))

let test_every_function_has_a_spec () =
  let out = Layers.compiled layout in
  List.iter
    (fun fn ->
      match Mem_spec.find layout fn with
      | Some _ -> ()
      | None -> Alcotest.failf "function %s has no specification" fn)
    out.Rustlite.Pipeline.function_names

let test_every_function_in_a_layer () =
  let out = Layers.compiled layout in
  List.iter
    (fun fn ->
      match Layers.layer_of_function layout fn with
      | Some _ -> ()
      | None -> Alcotest.failf "function %s not assigned to a layer" fn)
    out.Rustlite.Pipeline.function_names

(* ------------------------------------------------------------------ *)
(* Full conformance run                                                *)

let test_code_conformance () =
  let results = Check.Code_proof.run_all layout in
  Alcotest.(check int) "one report per function" 50 (List.length results);
  List.iter
    (fun (layer, r) ->
      if not (Report.ok r) then
        Alcotest.failf "[%s] %s" layer (Report.to_string r);
      if r.Report.passed = 0 then
        Alcotest.failf "[%s] %s: no case passed (vacuous)" layer r.Report.name)
    results

(* The input pool and composed environments are built on first use, so
   the order functions run in decides which of them builds each.  One
   shared ctx run forward, then in reverse, must report exactly what a
   fresh ctx reports. *)
let test_first_use_any_order () =
  let fns = List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names in
  let run ctx order =
    List.map
      (fun fn ->
        (fn, Check.Code_proof.run_function ctx fn, Check.Code_proof.run_function_composed ctx fn))
      order
  in
  let expected = run (Check.Code_proof.ctx layout) fns in
  let shared = Check.Code_proof.ctx layout in
  let forward = run shared fns in
  let backward = List.rev (run shared (List.rev fns)) in
  List.iter
    (fun got ->
      List.iter2
        (fun (fn, mono, composed) (_, mono', composed') ->
          if mono <> mono' then Alcotest.failf "%s: monolithic report differs" fn;
          if composed <> composed' then Alcotest.failf "%s: composed report differs" fn)
        expected got)
    [ forward; backward ]

let test_code_conformance_x86 () =
  (* the same code and specs on the real geometry; a cheaper seed/state
     budget since boot maps 8192 pages *)
  let x86 = Layout.default Geometry.x86_64 in
  let results = Check.Code_proof.run_layer x86 "PtMap" in
  List.iter
    (fun r -> if not (Report.ok r) then Alcotest.failf "%s" (Report.to_string r))
    results;
  let results2 = Check.Code_proof.run_layer x86 "PteOps" in
  List.iter
    (fun r -> if not (Report.ok r) then Alcotest.failf "%s" (Report.to_string r))
    results2

(* ------------------------------------------------------------------ *)
(* The batteries                                                       *)

(* One line per case of every function's battery at seed 2024: the
   rendered label, the arguments, the spec arguments, the object memory
   and [Absdata.hash] of the state.  A battery is a stream that each run
   regenerates, so every one is traversed twice and the two traversals
   must agree.  The cases of one state are adjacent, so each state is
   hashed once. *)
let battery_lines layout =
  let ctx = Check.Code_proof.ctx ~seed:2024 layout in
  let last = ref None in
  let hash abs =
    match !last with
    | Some (a, h) when a == abs -> h
    | _ ->
        let h = Absdata.hash abs in
        last := Some (abs, h);
        h
  in
  let values vs = String.concat "," (List.map Mir.Value.to_string vs) in
  let line fn (cs : Absdata.t Mirverif.Refine.case) =
    Printf.sprintf "%s|%s|%s|%s|%s|%d\n" fn (cs.label ()) (values cs.args)
      (match cs.spec_args with None -> "-" | Some args -> values args)
      (Format.asprintf "%a" Mir.Mem.pp cs.mem)
      (hash cs.abs)
  in
  List.concat_map
    (fun fn ->
      match Check.Code_proof.check_function ctx fn with
      | None -> []
      | Some (_, (c : Absdata.t Mirverif.Refine.check)) ->
          let first = List.of_seq (Seq.map (line fn) c.cases) in
          if List.of_seq (Seq.map (line fn) c.cases) <> first then
            Alcotest.failf "%s: a second traversal yields other cases" fn;
          first)
    (List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names)

(* The digest of every case, and the totals of a run, pinned: a
   generator change that adds, drops, reorders or alters one case fails
   here.  Changing the batteries on purpose also changes the verdicts
   that cached code-proof outcomes stand for, so it comes with a bump of
   the phase's fingerprint version ([code-proof-compose-v1]). *)
let check_batteries_pinned geometry ~digest ~totals () =
  let layout = Layout.default geometry in
  let lines = battery_lines layout in
  let total, passed, skipped, failed = totals in
  Alcotest.(check int) "cases in the batteries" total (List.length lines);
  Alcotest.(check string) "battery digest" digest
    (Digest.to_hex (Digest.string (String.concat "" lines)));
  Alcotest.(check (list int)) "total, passed, skipped, failed"
    [ total; passed; skipped; failed ]
    (let t, p, s, f =
       Check.Code_proof.total_cases (Check.Code_proof.run_all ~seed:2024 layout)
     in
     [ t; p; s; f ])

(* ------------------------------------------------------------------ *)
(* Block coverage                                                      *)

(* The (function, block) pairs the top frame enters while every case of
   every verified function's battery (seed 2024) runs under the
   reference interpreter, on the monolithic environments: lower layers
   as specifications, same-layer callees as bodies. *)
let entered_blocks layout =
  let ctx = Check.Code_proof.ctx ~seed:2024 layout in
  let entered = Hashtbl.create 512 in
  let rec go fuel cfg =
    (match (Mir.Interp.config_function cfg, Mir.Interp.config_block cfg) with
    | Some fn, Some bb -> Hashtbl.replace entered (fn, bb) ()
    | _ -> ());
    if fuel > 0 then
      match Mir.Interp.step cfg with
      | Ok (Mir.Interp.Running cfg) -> go (fuel - 1) cfg
      | Ok (Mir.Interp.Finished _) | Error _ -> ()
  in
  List.iter
    (fun fn ->
      match Check.Code_proof.check_function ctx fn with
      | None -> ()
      | Some (layer, (c : Absdata.t Mirverif.Refine.check)) ->
          let env = Layers.env_for layout ~layer in
          Seq.iter
            (fun (cs : Absdata.t Mirverif.Refine.case) ->
              match Mir.Interp.start env ~abs:cs.abs ~mem:cs.mem c.fn cs.args with
              | Ok cfg -> go c.fuel cfg
              | Error _ -> ())
            c.cases)
    (Layers.compiled layout).Rustlite.Pipeline.function_names;
  entered

(* CFG-reachable blocks of the 50 bodies that no case enters. *)
let unentered_blocks layout entered =
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  Mir.Syntax.fold_bodies
    (fun fn body acc ->
      let reachable = Analysis.Cfg.reachable body in
      let missed = ref [] in
      Array.iteri
        (fun bb r -> if r && not (Hashtbl.mem entered (fn, bb)) then missed := (fn, bb) :: !missed)
        reachable;
      List.rev_append !missed acc)
    program []

(* The reachable blocks no case enters, per function.  Each is an error
   return the generators never drive.  The lists may only shrink: a
   newly unentered block fails the test, and so does a pinned block
   that a case enters. *)
let pinned_tiny =
  [
    (* no free EPC page *)
    ("Enclave::add_page", [ 17 ]);
    (* every generated state keeps the EPT and the EPCM consistent, so
       none of the checks against a disagreement fires: the EPT maps va
       past the EPC (bb25); the EPCM entry is not valid (bb30), has
       another owner (bb35) or another va (bb40); the GPT or EPT unmap
       fails (bb45, bb50) *)
    ("Enclave::remove_page", [ 25; 30; 35; 40; 45; 50 ]);
    (* no free frame *)
    ("as_create", [ 3 ]);
    (* no free frame *)
    ("create_table", [ 3 ]);
    (* no free EPC page *)
    ("epcm_find_free", [ 4 ]);
    (* no free frame *)
    ("frame_alloc", [ 4 ]);
    (* an invalid marshalling window (bb8); no free frame for the GPT
       root (bb18), the EPT root (bb23) or the window's mappings (bb28) *)
    ("hc_create", [ 8; 18; 23; 28 ]);
    (* flags with the huge bit set *)
    ("map_page", [ 21 ]);
    (* no free frame for a missing table *)
    ("walk_alloc", [ 22 ]);
  ]

(* a page-aligned base that is not a valid address *)
let pinned_x86 = ("range_ok", [ 12 ]) :: pinned_tiny

let pp_blocks blocks =
  String.concat ", " (List.map (fun (fn, bb) -> Printf.sprintf "%s bb%d" fn bb) blocks)

(* The reachable blocks of the 50 bodies, and those the interval
   interpretation certifies dead ({!Analysis.Alias_lint.dead_blocks}):
   one fresh context with every primitive unmodelled solves them all,
   as {!Analysis.Alias_lint.check} builds it. *)
let dead_blocks layout =
  let program = (Layers.compiled layout).Rustlite.Pipeline.program in
  let ictx =
    Analysis.Interval_lint.A.create_ctx ~prim:(fun ~func:_ ~args:_ -> None) program
  in
  Mir.Syntax.fold_bodies
    (fun fn body (reachable, dead) ->
      let reachable =
        Array.fold_left (fun n r -> if r then n + 1 else n) reachable
          (Analysis.Cfg.reachable body)
      in
      let dead = ref dead in
      Array.iteri
        (fun bb d -> if d then dead := (fn, bb) :: !dead)
        (Analysis.Alias_lint.dead_blocks ictx fn);
      (reachable, !dead))
    program (0, [])

let check_unentered layout pinned () =
  let pinned = List.concat_map (fun (fn, bbs) -> List.map (fun bb -> (fn, bb)) bbs) pinned in
  let entered = entered_blocks layout in
  let missed = unentered_blocks layout entered in
  (* No case may enter a block certified dead.  None is certified yet,
     so this is vacuous until a finding or a generator change makes the
     interval interpretation prune a block; the pin says so. *)
  let reachable, dead = dead_blocks layout in
  Alcotest.(check (pair int int)) "certified-dead blocks, reachable blocks" (0, 413)
    (List.length dead, reachable);
  let entered_dead = List.filter (Hashtbl.mem entered) dead in
  if entered_dead <> [] then
    Alcotest.failf "a case enters a block certified dead: %s" (pp_blocks entered_dead);
  let newly = List.filter (fun b -> not (List.mem b pinned)) missed in
  let entered = List.filter (fun b -> not (List.mem b missed)) pinned in
  if newly <> [] then Alcotest.failf "reachable but never entered: %s" (pp_blocks newly);
  if entered <> [] then
    Alcotest.failf "pinned as never entered, but entered (unpin them): %s"
      (pp_blocks entered)

(* ------------------------------------------------------------------ *)
(* Mutation tests: injected bugs must be caught                        *)

(* Compile a mutated source and re-check one function against the
   unchanged specification. *)
let check_mutant ~fn ~from ~into =
  let src = Mem_source.source layout in
  if not (contains src from) then
    Alcotest.failf "mutation anchor not found: %s" from;
  let rec replace s =
    let n = String.length s and m = String.length from in
    let rec find i = if i + m > n then None else if String.sub s i m = from then Some i else find (i + 1) in
    match find 0 with
    | None -> s
    | Some i ->
        replace (String.sub s 0 i ^ into ^ String.sub s (i + m) (n - i - m))
  in
  let mutated = replace src in
  match Rustlite.Pipeline.compile mutated with
  | Error msg -> Alcotest.failf "mutant failed to compile: %s" msg
  | Ok out ->
      let layer =
        match Layers.layer_of_function layout fn with
        | Some l -> l
        | None -> Alcotest.failf "no layer for %s" fn
      in
      (* lower layers keep their (correct) specs; only [fn]'s body is
         the mutant *)
      let prims =
        Mirverif.Layer.interface_below (Layers.stack layout) ~layer
        |> List.map Mirverif.Spec.to_prim
      in
      let env = Mir.Interp.env ~prims out.Rustlite.Pipeline.program in
      let checks = Check.Code_proof.checks layout in
      let _, check =
        List.find (fun (_, (c : Absdata.t Mirverif.Refine.check)) -> String.equal c.Mirverif.Refine.fn fn) checks
      in
      Mirverif.Refine.run env check

(* Case labels are rendered only when a failure is recorded; the
   failure count and the first failing case's text pin what that
   rendering reports. *)
let check_failure_text r ~count ~first =
  Alcotest.(check int) "failure count" count (Report.failure_count r);
  match Report.failures r with
  | f :: _ -> Alcotest.(check string) "first failing case" first f.Report.case
  | [] -> Alcotest.fail "no failures"

let test_mutant_missing_present_check () =
  (* map_page forgets to reject double mapping *)
  let r =
    check_mutant ~fn:"map_page"
      ~from:"if pte_is_present(old) { return ERR_INVALID; }"
      ~into:""
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r);
  check_failure_text r ~count:42 ~first:"booted 0x1_u64,0x0_u64,0x440_u64,0x7_u64"

let test_mutant_wrong_flag_mask () =
  (* pte_make leaks address bits into the flag field *)
  let r =
    check_mutant ~fn:"pte_make"
      ~from:"fn pte_make(pa: u64, flags: u64) -> u64 { (pa & ADDR_MASK) | (flags & FLAGS_MASK) }"
      ~into:"fn pte_make(pa: u64, flags: u64) -> u64 { pa | (flags & FLAGS_MASK) }"
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r)

let test_mutant_allocator_skips_zero () =
  (* frame_alloc starts scanning at 1: no longer lowest-free *)
  let r =
    check_mutant ~fn:"frame_alloc"
      ~from:"fn frame_alloc() -> u64 {\n    let mut i = 0;"
      ~into:"fn frame_alloc() -> u64 {\n    let mut i = 1;"
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r)

let test_mutant_add_page_skips_elrange () =
  (* the Fig. 5 case-2 bug written into the code: add_page forgets the
     ELRANGE check *)
  let r =
    check_mutant ~fn:"Enclave::add_page"
      ~from:"if !self.in_elrange(va) { return ERR_INVALID; }"
      ~into:""
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r);
  check_failure_text r ~count:50
    ~first:
      "pristine self={0x7_u64, 0x0_u64, 0x0_u64, 0x2_u64, 0x100_u64, 0x0_u64, \
       0x1_u64} (0x60_u64)"

let test_mutant_remove_skips_epcm_clear () =
  (* remove_page unmaps but forgets to free the EPCM entry: the page
     leaks forever *)
  let r =
    check_mutant ~fn:"Enclave::remove_page"
      ~from:"        epc_page_zero(page);
        epcm_clear(page);
        OK
    }
}"
      ~into:"        epc_page_zero(page);
        OK
    }
}"
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r)

let test_mutant_shallow_copy_walk () =
  (* walk stops validating that next tables stay in the frame area —
     exactly what made the Sec. 4.1 shallow-copy bug dangerous *)
  let r =
    check_mutant ~fn:"walk"
      ~from:
        "        let next = entry_target_frame(e);\n\
        \        if next == NFRAMES {\n\
        \            return WalkRes { status: MALFORMED, level: level, frame: frame, index: index, entry: e };\n\
        \        }\n\
        \        frame = next;"
      ~into:"        frame = (pte_addr(e) - FRAME_BASE) >> PAGE_SHIFT;"
  in
  Alcotest.(check bool) "mutant caught" false (Report.ok r)

(* ------------------------------------------------------------------ *)
(* Low spec refines the Pt_flat intermediate spec                      *)

let booted () = Boot.booted layout

let fresh_root d = ok "create" (Pt_flat.create_table d)

let test_low_matches_pt_flat_query () =
  let d, root = fresh_root (booted ()) in
  let page = Int64.of_int (Geometry.page_size Geometry.tiny) in
  let d =
    ok "map" (Pt_flat.map_page d ~root ~va:(Int64.mul page 5L) ~pa:layout.Layout.epc_base Flags.user_rw)
  in
  let spec = Option.get (Mem_spec.find layout "query") in
  let vas = List.init 16 (fun i -> Int64.mul page (Int64.of_int i)) in
  List.iter
    (fun va ->
      match
        ( Mirverif.Spec.apply spec d [ Marshal_v.of_int root; Marshal_v.u64 va ],
          Pt_flat.query d ~root ~va )
      with
      | Ok (_, Mir.Value.Struct (0, [ present; pa; flags ])), Ok expectation -> (
          match expectation with
          | None ->
              Alcotest.(check bool) "absent" true
                (Mir.Value.equal present (Marshal_v.u64 0L))
          | Some (epa, eflags) ->
              Alcotest.(check bool) "present" true
                (Mir.Value.equal present (Marshal_v.u64 1L));
              Alcotest.(check bool) "pa agrees" true (Mir.Value.equal pa (Marshal_v.u64 epa));
              Alcotest.(check bool) "flags agree" true
                (Mir.Value.equal flags
                   (Marshal_v.u64 (Flags.encode Geometry.tiny eflags))))
      | Ok _, Ok _ -> Alcotest.fail "unexpected query result shape"
      | Error msg, _ -> Alcotest.failf "low query undefined: %s" msg
      | _, Error msg -> Alcotest.failf "Pt_flat.query: %s" msg)
    vas

(* Frames drained from [d]'s pool until [k] are free. *)
let drain k (d : Absdata.t) =
  let rec go falloc =
    if Frame_alloc.free_count falloc <= k then falloc
    else go (fst (ok "drain" (Frame_alloc.alloc falloc)))
  in
  { d with Absdata.falloc = go d.Absdata.falloc }

(* [hc_create(0, 2, 0x100)] from the booted tiny state: one enclave. *)
let created () =
  let o =
    Hypercall.create (Boot.booted layout) ~elrange_base:0L ~elrange_pages:2 ~mbuf_va:0x100L
  in
  (o.Hypercall.d, ok "find" (Absdata.find_enclave o.Hypercall.d o.Hypercall.value))

(* Code = low spec where no battery goes: [hc_create] and
   [Enclave::add_page] on drained frame pools, under the reference
   interpreter on the monolithic environments.  These cases enter
   hc_create's no-free-frame returns (bb18, bb23, bb28) and the
   no-free-frame results of the create_table and walk_alloc specs
   below; the coverage ratchet counts batteries only, so its pins do
   not move. *)
let test_code_matches_spec_on_drained_pools () =
  let run fn ks case =
    let layer = Option.get (Layers.layer_of_function layout fn) in
    let spec = Option.get (Mem_spec.find layout fn) in
    let check =
      Mirverif.Refine.check ~fn ~spec ~eq:(Mirverif.Refine.equiv Absdata.equal)
        (Seq.map case (List.to_seq ks))
    in
    let r = Mirverif.Refine.run_interp (Layers.env_for layout ~layer) check in
    if not (Report.ok r) then Alcotest.failf "%s" (Report.to_string r);
    Alcotest.(check (list int)) (fn ^ ": cases, passed, skipped")
      [ List.length ks; List.length ks; 0 ]
      [ r.Report.total; r.Report.passed; r.Report.skipped ]
  in
  let u64 = Marshal_v.u64 in
  run "hc_create" [ 0; 1; 2; 3; 4 ] (fun k ->
      Mirverif.Refine.case (drain k (Boot.booted layout)) [ u64 0L; u64 2L; u64 0x100L ]);
  let d, e = created () in
  let self = Mem_spec.enclave_to_value e in
  run "Enclave::add_page" [ 0; 1; 2; 3 ] (fun k ->
      Mirverif.Refine.case ~spec_args:[ self; u64 0L ]
        ~mem:(Mir.Mem.define (Mir.Path.Global "self_obj") self Mir.Mem.empty)
        (drain k d)
        [ Mir.Value.ptr_path (Mir.Path.global "self_obj"); u64 0L ])

(* ROADMAP item 14's known divergence, pinned as a ratchet and not as a
   property: [hc_create] from the booted tiny state with k frames free.
   With none free, the model and the low spec both fail with status 2
   (no-memory) and change nothing; with four, both succeed.  With one to
   three free, both fail with status 2, but the model rolls back and the
   low spec (like the code) spends every free frame on partial tables.
   The change that settles item 14 must flip the k = 1..3 rows. *)
let test_model_vs_low_spec_hc_create_exhaustion () =
  let spec = Option.get (Mem_spec.find layout "hc_create") in
  let drained k =
    let d = Boot.booted layout in
    let rec go falloc =
      if Frame_alloc.free_count falloc <= k then falloc
      else go (fst (ok "drain" (Frame_alloc.alloc falloc)))
    in
    { d with Absdata.falloc = go d.Absdata.falloc }
  in
  for k = 0 to 4 do
    let d = drained k in
    Alcotest.(check int) (Printf.sprintf "%d frames free" k) k
      (Frame_alloc.free_count d.Absdata.falloc);
    let model = Hypercall.create d ~elrange_base:0L ~elrange_pages:2 ~mbuf_va:0x100L in
    let d_spec, status =
      match
        Mirverif.Spec.apply spec d
          [ Marshal_v.u64 0L; Marshal_v.of_int 2; Marshal_v.u64 0x100L ]
      with
      | Ok (d_spec, Mir.Value.Struct (0, status :: _)) -> (d_spec, status)
      | Ok _ -> Alcotest.fail "hc_create result shape"
      | Error msg -> Alcotest.failf "hc_create spec undefined: %s" msg
    in
    let what fmt = Printf.ksprintf (Printf.sprintf "%d free: %s" k) fmt in
    let expected_status = if k = 4 then 0 else 2 in
    Alcotest.(check int) (what "model status") expected_status
      (Hypercall.status_code model.Hypercall.status |> Int64.to_int);
    Alcotest.(check bool) (what "spec status") true
      (Mir.Value.equal status (Marshal_v.u64 (Int64.of_int expected_status)));
    if k < 4 then begin
      Alcotest.(check bool) (what "model leaves the monitor unchanged") true
        (Absdata.equal model.Hypercall.d d);
      Alcotest.(check bool)
        (what "spec leaves the monitor unchanged (known divergence for k = 1..3)")
        (k = 0) (Absdata.equal d_spec d);
      Alcotest.(check int) (what "frames free after the spec") 0
        (Frame_alloc.free_count d_spec.Absdata.falloc)
    end
    else
      Alcotest.(check bool) (what "same memory after success") true
        (Phys_mem.equal d_spec.Absdata.phys model.Hypercall.d.Absdata.phys)
  done

(* The same divergence for [Enclave::add_page(va 0)] after [created]:
   with none free, both fail with status 2 and change nothing; with
   two or three, both succeed.  With one free, both fail with status 2,
   but the model rolls back, while the low spec (like the code) keeps
   va 0 mapped in the GPT with no EPT mapping and no frame free.  The
   change that settles item 14 must flip the k = 1 row, with the
   k = 1..3 rows of hc_create. *)
let test_model_vs_low_spec_add_page_exhaustion () =
  let spec = Option.get (Mem_spec.find layout "Enclave::add_page") in
  let d0, e = created () in
  for k = 0 to 3 do
    let d = drain k d0 in
    let what fmt = Printf.ksprintf (Printf.sprintf "%d free: %s" k) fmt in
    let model = Hypercall.add_page d ~eid:e.Enclave.eid ~va:0L in
    let d_spec, status =
      ok "add_page spec"
        (Mirverif.Spec.apply spec d [ Mem_spec.enclave_to_value e; Marshal_v.u64 0L ])
    in
    let expected_status = if k >= 2 then 0L else 2L in
    Alcotest.(check int64) (what "model status") expected_status
      (Hypercall.status_code model.Hypercall.status);
    Alcotest.(check bool) (what "spec status") true
      (Mir.Value.equal status (Marshal_v.u64 expected_status));
    let mapped root d = ok "query" (Pt_flat.query d ~root ~va:0L) <> None in
    if k < 2 then begin
      Alcotest.(check bool) (what "model leaves the monitor unchanged") true
        (Absdata.equal model.Hypercall.d d);
      Alcotest.(check bool)
        (what "spec leaves the monitor unchanged (known divergence for k = 1)")
        (k = 0) (Absdata.equal d_spec d);
      Alcotest.(check (list bool)) (what "spec: va 0 in the GPT, in the EPT")
        [ k = 1; false ]
        [ mapped e.Enclave.gpt_root d_spec; mapped e.Enclave.ept_root d_spec ];
      Alcotest.(check int) (what "frames free after the spec") 0
        (Frame_alloc.free_count d_spec.Absdata.falloc)
    end
    else
      Alcotest.(check bool) (what "same state after success") true
        (Absdata.equal d_spec model.Hypercall.d)
  done

(* And Pt_flat itself refines Pt_tree (checked as a property in the
   hyperenclave suite); here: spot-check the three-level tower
   low-spec -> Pt_flat -> Pt_tree on one workload. *)
let test_three_level_tower () =
  let d, root = fresh_root (booted ()) in
  let page = Int64.of_int (Geometry.page_size Geometry.tiny) in
  let spec = Option.get (Mem_spec.find layout "map_page") in
  let apply d va pa =
    match
      Mirverif.Spec.apply spec d
        [ Marshal_v.of_int root; Marshal_v.u64 va; Marshal_v.u64 pa;
          Marshal_v.u64 (Flags.encode Geometry.tiny Flags.user_rw) ]
    with
    | Ok (d', _) -> d'
    | Error msg -> Alcotest.failf "map: %s" msg
  in
  let d = apply d 0L layout.Layout.epc_base in
  let d = apply d (Int64.mul page 7L) (Int64.add layout.Layout.epc_base page) in
  (* low-spec result state still abstracts to a well-formed tree *)
  let tree = ok "abstract" (Pt_refine.abstract d ~root) in
  ok "wf" (Pt_tree.wf tree);
  Alcotest.(check bool) "R holds" true (Pt_refine.relate d ~root tree);
  Alcotest.(check int) "two mappings" 2 (List.length (Pt_tree.mappings tree))

let () =
  Alcotest.run "codeproof"
    [
      ( "structure",
        [
          Alcotest.test_case "49 functions" `Quick test_compiles_49_functions;
          Alcotest.test_case "stratified" `Quick test_stratified;
          Alcotest.test_case "specs complete" `Quick test_every_function_has_a_spec;
          Alcotest.test_case "layers complete" `Quick test_every_function_in_a_layer;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "all 49 functions (tiny)" `Quick test_code_conformance;
          Alcotest.test_case "first use across domains" `Quick test_first_use_any_order;
          Alcotest.test_case "PtMap + PteOps (x86-64)" `Slow test_code_conformance_x86;
        ] );
      ( "batteries",
        [
          Alcotest.test_case "pinned (tiny)" `Quick
            (check_batteries_pinned Geometry.tiny
               ~digest:"fcb38b796b7321ebac722619fcf1dfc3"
               ~totals:(10588, 10364, 224, 0));
          Alcotest.test_case "pinned (x86-64)" `Quick
            (check_batteries_pinned Geometry.x86_64
               ~digest:"aa0007c996ddcc31c538677edf4dc31c"
               ~totals:(10732, 10484, 248, 0));
        ] );
      ( "coverage",
        [
          Alcotest.test_case "unentered blocks pinned (tiny)" `Quick
            (check_unentered layout pinned_tiny);
          Alcotest.test_case "unentered blocks pinned (x86-64)" `Quick
            (check_unentered (Layout.default Geometry.x86_64) pinned_x86);
        ] );
      ( "mutations",
        [
          Alcotest.test_case "missing present check" `Quick test_mutant_missing_present_check;
          Alcotest.test_case "wrong flag mask" `Quick test_mutant_wrong_flag_mask;
          Alcotest.test_case "allocator skips frame 0" `Quick test_mutant_allocator_skips_zero;
          Alcotest.test_case "add_page skips elrange" `Quick test_mutant_add_page_skips_elrange;
          Alcotest.test_case "walk drops frame-area check" `Quick test_mutant_shallow_copy_walk;
          Alcotest.test_case "remove skips epcm clear" `Quick test_mutant_remove_skips_epcm_clear;
        ] );
      ( "refinement-tower",
        [
          Alcotest.test_case "low spec vs Pt_flat query" `Quick test_low_matches_pt_flat_query;
          Alcotest.test_case "low -> flat -> tree" `Quick test_three_level_tower;
          Alcotest.test_case "code vs low spec on drained pools" `Quick
            test_code_matches_spec_on_drained_pools;
          Alcotest.test_case "model vs low spec: hc_create, 0-4 frames free" `Quick
            test_model_vs_low_spec_hc_create_exhaustion;
          Alcotest.test_case "model vs low spec: add_page, 0-3 frames free" `Quick
            test_model_vs_low_spec_add_page_exhaustion;
        ] );
    ]
