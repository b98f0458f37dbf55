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

(* Batteries and composed environments are built on first use, so the
   order functions run in decides which of them builds each memo.  One
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
          List.iter
            (fun (cs : Absdata.t Mirverif.Refine.case) ->
              match Mir.Interp.start env ~abs:cs.abs ~mem:cs.mem c.fn cs.args with
              | Ok cfg -> go c.fuel cfg
              | Error _ -> ())
            c.cases)
    (Layers.compiled layout).Rustlite.Pipeline.function_names;
  entered

(* CFG-reachable blocks of the 50 bodies that no case enters. *)
let unentered_blocks layout =
  let entered = entered_blocks layout in
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

let check_unentered layout pinned () =
  let pinned = List.concat_map (fun (fn, bbs) -> List.map (fun bb -> (fn, bb)) bbs) pinned in
  let missed = unentered_blocks layout in
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

let test_low_matches_pt_flat_map () =
  (* On inputs where Pt_flat.map_page succeeds, the low spec of the
     code must succeed with the same state; where Pt_flat rejects for a
     caller-visible reason, the low spec must report a failure status
     and (on argument errors) leave the state unchanged. *)
  let d, root = fresh_root (booted ()) in
  let page = Int64.of_int (Geometry.page_size Geometry.tiny) in
  let spec = Option.get (Mem_spec.find layout "map_page") in
  let run_low d va pa flags =
    match
      Mirverif.Spec.apply spec d
        [ Marshal_v.of_int root; Marshal_v.u64 va; Marshal_v.u64 pa; Marshal_v.u64 flags ]
    with
    | Ok (d', ret) -> (d', ret)
    | Error msg -> Alcotest.failf "low spec undefined: %s" msg
  in
  let cases =
    [
      (0L, layout.Layout.epc_base, Flags.encode Geometry.tiny Flags.user_rw);
      (Int64.mul page 3L, 0L, Flags.encode Geometry.tiny Flags.user_r);
      (8L, 0L, Flags.encode Geometry.tiny Flags.user_rw) (* unaligned va *);
      (0L, 0L, 0L) (* non-present flags *);
    ]
  in
  List.iter
    (fun (va, pa, flags) ->
      let d', low_ret = run_low d va pa flags in
      match Pt_flat.map_page d ~root ~va ~pa (Flags.decode Geometry.tiny flags) with
      | Ok d_flat ->
          Alcotest.(check bool) "low spec agrees on success" true
            (Mir.Value.equal low_ret (Marshal_v.u64 0L));
          Alcotest.(check bool) "states agree" true (Absdata.equal d' d_flat)
      | Error _ ->
          Alcotest.(check bool) "low spec reports failure" false
            (Mir.Value.equal low_ret (Marshal_v.u64 0L));
          Alcotest.(check bool) "state unchanged on arg error" true
            (Absdata.equal d' d))
    cases

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

(* The abstract hypercall model (what the security proofs run on) must
   agree with the verified code's low specs on every success path; on
   failures the model is transactional and only status codes are
   compared. *)
let test_model_agrees_with_low_spec_add_page () =
  let d = ok "build" (Security.Attacks.healthy.Security.Attacks.build ()) in
  let spec = Option.get (Mem_spec.find layout "Enclave::add_page") in
  let pageL = Int64.of_int (Geometry.page_size Geometry.tiny) in
  List.iter
    (fun eid ->
      let e = ok "find" (Absdata.find_enclave d eid) in
      for vp = 0 to 15 do
        let va = Int64.mul pageL (Int64.of_int vp) in
        let model = Hypercall.add_page d ~eid ~va in
        match
          Mirverif.Spec.apply spec d [ Mem_spec.enclave_to_value e; Marshal_v.u64 va ]
        with
        | Error msg -> Alcotest.failf "low spec undefined (va page %d): %s" vp msg
        | Ok (d_spec, ret) ->
            let spec_status = ret in
            let model_status = Marshal_v.u64 (Hypercall.status_code model.Hypercall.status) in
            if not (Mir.Value.equal spec_status model_status) then
              Alcotest.failf "status codes differ at va page %d (eid %d): spec %s model %s"
                vp eid (Mir.Value.to_string spec_status) (Mir.Value.to_string model_status);
            if Hypercall.status_equal model.Hypercall.status Hypercall.Success then begin
              if not (Phys_mem.equal d_spec.Absdata.phys model.Hypercall.d.Absdata.phys)
              then Alcotest.failf "phys differs after add (va page %d)" vp;
              if not (Frame_alloc.equal d_spec.Absdata.falloc model.Hypercall.d.Absdata.falloc)
              then Alcotest.failf "falloc differs after add (va page %d)" vp;
              if not (Epcm.equal d_spec.Absdata.epcm model.Hypercall.d.Absdata.epcm)
              then Alcotest.failf "epcm differs after add (va page %d)" vp
            end
      done)
    (Absdata.enclave_ids d)

let test_model_agrees_with_low_spec_remove_page () =
  let d = ok "build" (Security.Attacks.healthy.Security.Attacks.build ()) in
  let spec = Option.get (Mem_spec.find layout "Enclave::remove_page") in
  let pageL = Int64.of_int (Geometry.page_size Geometry.tiny) in
  List.iter
    (fun eid ->
      let e = ok "find" (Absdata.find_enclave d eid) in
      for vp = 0 to 15 do
        let va = Int64.mul pageL (Int64.of_int vp) in
        let model = Hypercall.remove_page d ~eid ~va in
        match
          Mirverif.Spec.apply spec d [ Mem_spec.enclave_to_value e; Marshal_v.u64 va ]
        with
        | Error msg -> Alcotest.failf "low spec undefined (va page %d): %s" vp msg
        | Ok (d_spec, ret) ->
            if
              not
                (Mir.Value.equal ret
                   (Marshal_v.u64 (Hypercall.status_code model.Hypercall.status)))
            then Alcotest.failf "remove status differs at va page %d (eid %d)" vp eid;
            if Hypercall.status_equal model.Hypercall.status Hypercall.Success then begin
              if not (Absdata.equal { d_spec with Absdata.enclaves = model.Hypercall.d.Absdata.enclaves; next_eid = model.Hypercall.d.Absdata.next_eid; os_ept_root = model.Hypercall.d.Absdata.os_ept_root } model.Hypercall.d)
              then Alcotest.failf "state differs after remove (va page %d)" vp
            end
      done)
    (Absdata.enclave_ids d)

let test_model_agrees_with_low_spec_hc_create () =
  let d = Boot.booted layout in
  let spec = Option.get (Mem_spec.find layout "hc_create") in
  let pageL = Int64.of_int (Geometry.page_size Geometry.tiny) in
  let cases =
    [ (0L, 2, 8); (0L, 1, 8); (8L, 2, 8); (0L, 9, 8); (0L, 2, 0); (Int64.mul pageL 4L, 4, 8) ]
  in
  List.iter
    (fun (elrange_base, elrange_pages, mbuf_page) ->
      let mbuf_va = Int64.mul pageL (Int64.of_int mbuf_page) in
      let model = Hypercall.create d ~elrange_base ~elrange_pages ~mbuf_va in
      match
        Mirverif.Spec.apply spec d
          [ Marshal_v.u64 elrange_base; Marshal_v.of_int elrange_pages; Marshal_v.u64 mbuf_va ]
      with
      | Error msg -> Alcotest.failf "hc_create spec undefined: %s" msg
      | Ok (d_spec, ret) -> (
          match ret with
          | Mir.Value.Struct (0, [ status; gpt; ept ]) ->
              if
                not
                  (Mir.Value.equal status
                     (Marshal_v.u64 (Hypercall.status_code model.Hypercall.status)))
              then Alcotest.fail "hc_create status differs";
              if Hypercall.status_equal model.Hypercall.status Hypercall.Success then begin
                let e = ok "find" (Absdata.find_enclave model.Hypercall.d model.Hypercall.value) in
                if not (Mir.Value.equal gpt (Marshal_v.of_int e.Enclave.gpt_root)) then
                  Alcotest.fail "gpt roots differ";
                if not (Mir.Value.equal ept (Marshal_v.of_int e.Enclave.ept_root)) then
                  Alcotest.fail "ept roots differ";
                if not (Phys_mem.equal d_spec.Absdata.phys model.Hypercall.d.Absdata.phys)
                then Alcotest.fail "phys differs after hc_create"
              end
          | _ -> Alcotest.fail "hc_create result shape"))
    cases

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
          Alcotest.test_case "low spec vs Pt_flat map" `Quick test_low_matches_pt_flat_map;
          Alcotest.test_case "low spec vs Pt_flat query" `Quick test_low_matches_pt_flat_query;
          Alcotest.test_case "low -> flat -> tree" `Quick test_three_level_tower;
          Alcotest.test_case "model vs low spec: add_page" `Quick
            test_model_agrees_with_low_spec_add_page;
          Alcotest.test_case "model vs low spec: remove_page" `Quick
            test_model_agrees_with_low_spec_remove_page;
          Alcotest.test_case "model vs low spec: hc_create" `Quick
            test_model_agrees_with_low_spec_hc_create;
        ] );
    ]
