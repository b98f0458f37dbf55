(* Tests for the MIRVerif framework: specs, layers, the refinement
   checker's verdict semantics, invariants, reports. *)

module Spec = Mirverif.Spec
module Layer = Mirverif.Layer
module Refine = Mirverif.Refine
module Invariant = Mirverif.Invariant
module Report = Mirverif.Report

let u64 = Mir.Value.u64

(* A tiny abstract state: one counter. *)
type abs = int

let bump_spec : abs Spec.t =
  Spec.make "bump" (fun abs args ->
      match args with
      | [ Mir.Value.Int (n, _) ] ->
          if Int64.compare n 100L > 0 then Error "precondition: n <= 100"
          else Ok (abs + Int64.to_int n, u64 (Int64.of_int (abs + Int64.to_int n)))
      | _ -> Error "bump expects one integer")

let get_spec : abs Spec.t =
  Spec.make "get" (fun abs args ->
      match args with
      | [] -> Ok (abs, u64 (Int64.of_int abs))
      | _ -> Error "get expects no arguments")

(* MIR bodies implementing them on top of each other. *)
open Mir.Builder

(* fn bump(n) -> u64: correct implementation via the 'get' primitive. *)
let body_bump ~bug =
  let b =
    create ~name:"bump"
      ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  let cur = temp b ~name:"cur" (Mir.Ty.Int Mir.Ty.U64) in
  let next = fresh_block b in
  terminate b (Mir.Syntax.Call { dest = pvar cur; func = "get"; args = []; target = Some next });
  switch_to b next;
  assign_var b "_0"
    (Mir.Syntax.Binary
       (Mir.Syntax.Add, copy cur, if bug then cu64 1 else copy "_1"));
  (* the abstract effect: set the counter through set_counter *)
  let done_ = fresh_block b in
  terminate b
    (Mir.Syntax.Call
       {
         dest = pvar (temp b Mir.Ty.Unit);
         func = "set_counter";
         args = [ copy "_0" ];
         target = Some done_;
       });
  switch_to b done_;
  terminate b Mir.Syntax.Return;
  finish b

let set_counter_spec : abs Spec.t =
  Spec.make "set_counter" (fun _abs args ->
      match args with
      | [ Mir.Value.Int (v, _) ] -> Ok (Int64.to_int v, Mir.Value.Unit)
      | _ -> Error "set_counter expects one integer")

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)

let test_spec_pure () =
  let s = Spec.pure "double" (fun args ->
      match args with
      | [ Mir.Value.Int (n, _) ] -> Ok (u64 (Int64.mul 2L n))
      | _ -> Error "one int")
  in
  match Spec.apply s 7 [ u64 21L ] with
  | Ok (abs, v) ->
      Alcotest.(check int) "state unchanged" 7 abs;
      Alcotest.(check bool) "value" true (Mir.Value.equal v (u64 42L))
  | Error e -> Alcotest.fail e

let test_spec_to_prim () =
  let p = Spec.to_prim bump_spec in
  Alcotest.(check string) "name" "bump" p.Mir.Interp.prim_name;
  match p.Mir.Interp.prim_exec 1 [ u64 2L ] with
  | Ok (abs, _) -> Alcotest.(check int) "state" 3 abs
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Layer                                                               *)

let stack : abs Layer.stack =
  [
    Layer.make ~name:"bottom" ~exports:[ get_spec; set_counter_spec ] ~code:[];
    Layer.make ~name:"middle" ~exports:[ bump_spec ] ~code:[ body_bump ~bug:false ];
  ]

let test_layer_interface_below () =
  let below = Layer.interface_below stack ~layer:"middle" in
  Alcotest.(check (list string)) "bottom exports visible" [ "get"; "set_counter" ]
    (List.sort String.compare (List.map (fun (s : abs Spec.t) -> s.Spec.name) below));
  let below_bottom = Layer.interface_below stack ~layer:"bottom" in
  Alcotest.(check int) "nothing below bottom" 0 (List.length below_bottom)

let test_layer_overlay_shadowing () =
  let v1 = Spec.pure "f" (fun _ -> Ok (u64 1L)) in
  let v2 = Spec.pure "f" (fun _ -> Ok (u64 2L)) in
  let stack =
    [
      Layer.make ~name:"low" ~exports:[ v1 ] ~code:[];
      Layer.make ~name:"high" ~exports:[ v2 ] ~code:[];
    ]
  in
  let env = Layer.env_on_top stack in
  let prims = Mir.Interp.env_prims env in
  Alcotest.(check int) "one f after overlay" 1 (List.length prims);
  match (List.hd prims).Mir.Interp.prim_exec 0 [] with
  | Ok (_, v) ->
      Alcotest.(check bool) "higher layer wins" true (Mir.Value.equal v (u64 2L))
  | Error e -> Alcotest.fail e

let test_layer_stratification () =
  Alcotest.(check int) "clean stack" 0 (List.length (Layer.check_stratified stack));
  (* a body calling an unknown/higher function is flagged *)
  let bad_body =
    let b = create ~name:"bad" ~params:[] ~ret_ty:Mir.Ty.Unit in
    let next = fresh_block b in
    terminate b
      (Mir.Syntax.Call
         { dest = pvar (temp b Mir.Ty.Unit); func = "mystery"; args = []; target = Some next });
    switch_to b next;
    terminate b Mir.Syntax.Return;
    finish b
  in
  let bad_stack = [ Layer.make ~name:"only" ~exports:[] ~code:[ bad_body ] ] in
  let issues = Layer.check_stratified bad_stack in
  Alcotest.(check int) "upcall flagged" 1 (List.length issues);
  Alcotest.(check string) "callee named" "mystery" (List.hd issues).Layer.callee

(* ------------------------------------------------------------------ *)
(* Refine: verdict semantics                                           *)

let env_for_middle = Layer.env_for stack ~layer:"middle"

let test_refine_pass () =
  let check =
    Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal)
      (List.to_seq
         [ Refine.case 0 [ u64 5L ]; Refine.case 10 [ u64 7L ]; Refine.case 3 [ u64 0L ] ])
  in
  let r = Refine.run env_for_middle check in
  Alcotest.(check bool) "all pass" true (Report.ok r);
  Alcotest.(check int) "3 cases" 3 r.Report.passed

let test_refine_skip_on_precondition () =
  let check =
    Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal)
      (Seq.return (Refine.case 0 [ u64 1000L ]) (* spec undefined: n > 100 *))
  in
  let r = Refine.run env_for_middle check in
  Alcotest.(check int) "skipped" 1 r.Report.skipped;
  Alcotest.(check bool) "not a failure" true (Report.ok r)

let test_refine_catches_wrong_code () =
  let buggy_env =
    Mir.Interp.env
      ~prims:(List.map Spec.to_prim [ get_spec; set_counter_spec ])
      (Mir.Syntax.program_of_bodies [ body_bump ~bug:true ])
  in
  let check =
    Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal)
      (Seq.return (Refine.case 0 [ u64 5L ]))
  in
  let r = Refine.run buggy_env check in
  Alcotest.(check bool) "bug caught" false (Report.ok r)

(* A case's label is rendered only for a failure report: never for a
   pass or a skip, exactly once for a failure. *)
let test_refine_labels_on_failure () =
  let calls = ref 0 in
  let label () =
    incr calls;
    "counted"
  in
  let cases =
    List.to_seq [ Refine.case ~label 0 [ u64 5L ]; Refine.case ~label 0 [ u64 1000L ] ]
  in
  let r =
    Refine.run env_for_middle
      (Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal) cases)
  in
  Alcotest.(check (pair int int)) "one pass, one skip" (1, 1) (r.Report.passed, r.Report.skipped);
  Alcotest.(check int) "passing battery renders no label" 0 !calls;
  let buggy_env =
    Mir.Interp.env
      ~prims:(List.map Spec.to_prim [ get_spec; set_counter_spec ])
      (Mir.Syntax.program_of_bodies [ body_bump ~bug:true ])
  in
  let r =
    Refine.run buggy_env
      (Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal)
         (Seq.return (Refine.case ~label 0 [ u64 5L ])))
  in
  Alcotest.(check int) "failing case renders its label once" 1 !calls;
  Alcotest.(check (list string)) "label is the failure's case" [ "counted" ]
    (List.map (fun (f : Report.failure) -> f.Report.case) (Report.failures r))

let test_refine_catches_faulting_code () =
  let faulty =
    let b = create ~name:"bump" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
        ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
    in
    terminate b Mir.Syntax.Unreachable;
    finish b
  in
  let env = Mir.Interp.env ~prims:[] (Mir.Syntax.program_of_bodies [ faulty ]) in
  let check =
    Refine.check ~fn:"bump" ~spec:bump_spec ~eq:(Refine.equiv Int.equal)
      (Seq.return (Refine.case 0 [ u64 5L ]))
  in
  let r = Refine.run env check in
  Alcotest.(check bool) "fault is a failure" false (Report.ok r);
  Alcotest.(check bool) "reason mentions fault" true
    (match Report.failures r with
    | [ f ] ->
        let s = f.Report.reason in
        let sub = "faulted" in
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
    | _ -> false)

let test_refine_spec_args_and_mem () =
  (* code reads through a pointer into pre-set memory; the spec gets
     the pointee by value *)
  let read_ptr =
    let b = create ~name:"read_ptr"
        ~params:[ ("_1", Mir.Ty.Ref (Mir.Ty.Int Mir.Ty.U64), Mir.Syntax.Ktemp) ]
        ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
    in
    assign_var b "_0" (Mir.Syntax.Use (Mir.Syntax.Copy (pderef (pvar "_1"))));
    terminate b Mir.Syntax.Return;
    finish b
  in
  let spec =
    Spec.pure "read_ptr" (fun args ->
        match args with [ v ] -> Ok v | _ -> Error "one value")
  in
  let env = Mir.Interp.env ~prims:[] (Mir.Syntax.program_of_bodies [ read_ptr ]) in
  let mem = Mir.Mem.define (Mir.Path.Global "obj") (u64 99L) Mir.Mem.empty in
  let check =
    Refine.check ~fn:"read_ptr" ~spec ~eq:(Refine.equiv (fun _ _ -> true))
      (Seq.return
         (Refine.case ~spec_args:[ u64 99L ] ~mem 0
            [ Mir.Value.ptr_path (Mir.Path.global "obj") ]))
  in
  let r = Refine.run env check in
  Alcotest.(check bool) "pointer/value case passes" true (Report.ok r)

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

let test_simulate () =
  (* low state: int; high state: int64; R: equal values *)
  let lo = Spec.make "inc" (fun abs args ->
      match args with [ _ ] -> Ok (abs + 1, u64 (Int64.of_int (abs + 1))) | _ -> Error "x")
  in
  let hi = Spec.make "inc" (fun abs args ->
      match args with [ _ ] -> Ok (Int64.add abs 1L, u64 (Int64.add abs 1L)) | _ -> Error "x")
  in
  let sim =
    {
      Refine.sim_name = "inc";
      lo;
      hi;
      relate = (fun l h -> Int64.equal (Int64.of_int l) h);
      ret_rel =
        (fun vl vh ->
          match Mir.Value.retag vl with
          | Ok vl' -> Mir.Value.equal vl' vh
          | Error _ -> false);
    }
  in
  let r = Refine.simulate sim ~cases:[ ("c0", 4, 4L, [ u64 0L ]) ] in
  Alcotest.(check bool) "simulation holds" true (Report.ok r);
  (* a broken relation is reported *)
  let r2 = Refine.simulate sim ~cases:[ ("bad", 4, 9L, [ u64 0L ]) ] in
  Alcotest.(check bool) "unrelated initial states flagged" false (Report.ok r2)

(* ------------------------------------------------------------------ *)
(* Invariant                                                           *)

let inv_nonneg = Invariant.of_pred "non-negative" (fun abs -> abs >= 0)
let inv_small = Invariant.make "small" (fun abs ->
    if abs <= 10 then Ok () else Error (Printf.sprintf "%d > 10" abs))

let test_invariant_check_all () =
  (match Invariant.check_all [ inv_nonneg; inv_small ] 5 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Invariant.check_all [ inv_nonneg; inv_small ] 50 with
  | Ok () -> Alcotest.fail "should violate 'small'"
  | Error msg ->
      Alcotest.(check bool) "names the invariant" true
        (String.length msg >= 5 && String.sub msg 0 5 = "small")

let test_invariant_preserved () =
  let steps =
    [
      Invariant.step "incr" (fun abs -> if abs < 10 then Ok (abs + 1) else Error "cap");
      Invariant.step "reset" (fun _ -> Ok 0);
      Invariant.step "breaker" (fun abs -> if abs = 7 then Ok 99 else Error "disabled");
    ]
  in
  let good =
    Invariant.preserved ~invariants:[ inv_nonneg; inv_small ]
      ~steps:(List.filteri (fun i _ -> i < 2) steps)
      ~states:[ ("s0", 0); ("s5", 5); ("s10", 10); ("sbad", 42) ]
  in
  Alcotest.(check bool) "good steps preserve" true (Report.ok good);
  (* state 42 violates up front: skipped, not failed *)
  Alcotest.(check bool) "unreachable state skipped" true (good.Report.skipped > 0);
  let bad =
    Invariant.preserved ~invariants:[ inv_nonneg; inv_small ] ~steps
      ~states:[ ("s7", 7) ]
  in
  Alcotest.(check bool) "breaker caught" false (Report.ok bad)

let test_invariant_establishes () =
  let r = Invariant.establishes ~invariants:[ inv_nonneg ] ~init:[ ("a", 0); ("b", -1) ] in
  Alcotest.(check int) "one failure" 1 (Report.failure_count r)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report_merge () =
  let a = Report.add_pass (Report.add_skip (Report.empty "a")) in
  let b = Report.add_failure (Report.empty "b") ~case:"c" ~reason:"r" in
  let m = Report.merge "m" [ a; b ] in
  Alcotest.(check int) "total" 3 m.Report.total;
  Alcotest.(check int) "passed" 1 m.Report.passed;
  Alcotest.(check int) "skipped" 1 m.Report.skipped;
  Alcotest.(check int) "failures" 1 (Report.failure_count m);
  Alcotest.(check bool) "not ok" false (Report.ok m)

let test_report_failure_order () =
  (* failures must come back in the order they were added, across
     both accumulation and merge *)
  let add r i =
    Report.add_failure r ~case:(Printf.sprintf "c%d" i) ~reason:"r"
  in
  let a = List.fold_left add (Report.empty "a") [ 0; 1; 2 ] in
  let b = List.fold_left add (Report.empty "b") [ 3; 4 ] in
  let cases r = List.map (fun f -> f.Report.case) (Report.failures r) in
  Alcotest.(check (list string)) "order preserved" [ "c0"; "c1"; "c2" ] (cases a);
  let m = Report.merge "m" [ a; b ] in
  Alcotest.(check (list string))
    "merge keeps argument order" [ "c0"; "c1"; "c2"; "c3"; "c4" ] (cases m)

let test_report_merge_by_name () =
  let r name = Report.add_pass (Report.empty name) in
  let merged = Report.merge_by_name [ r "x"; r "y"; r "x"; r "z"; r "y" ] in
  Alcotest.(check (list string))
    "first-occurrence order, one line per name" [ "x"; "y"; "z" ]
    (List.map (fun (m : Report.t) -> m.Report.name) merged);
  Alcotest.(check (list int)) "totals folded" [ 2; 2; 1 ]
    (List.map (fun (m : Report.t) -> m.Report.total) merged)

let () =
  Alcotest.run "core"
    [
      ( "spec",
        [
          Alcotest.test_case "pure" `Quick test_spec_pure;
          Alcotest.test_case "to_prim" `Quick test_spec_to_prim;
        ] );
      ( "layer",
        [
          Alcotest.test_case "interface below" `Quick test_layer_interface_below;
          Alcotest.test_case "overlay shadowing" `Quick test_layer_overlay_shadowing;
          Alcotest.test_case "stratification" `Quick test_layer_stratification;
        ] );
      ( "refine",
        [
          Alcotest.test_case "pass" `Quick test_refine_pass;
          Alcotest.test_case "skip on precondition" `Quick test_refine_skip_on_precondition;
          Alcotest.test_case "catches wrong code" `Quick test_refine_catches_wrong_code;
          Alcotest.test_case "catches faulting code" `Quick test_refine_catches_faulting_code;
          Alcotest.test_case "labels only on failure" `Quick test_refine_labels_on_failure;
          Alcotest.test_case "spec_args and mem" `Quick test_refine_spec_args_and_mem;
          Alcotest.test_case "simulation" `Quick test_simulate;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "check_all" `Quick test_invariant_check_all;
          Alcotest.test_case "preserved" `Quick test_invariant_preserved;
          Alcotest.test_case "establishes" `Quick test_invariant_establishes;
        ] );
      ( "report",
        [
          Alcotest.test_case "merge" `Quick test_report_merge;
          Alcotest.test_case "failure order" `Quick test_report_failure_order;
          Alcotest.test_case "merge_by_name" `Quick test_report_merge_by_name;
        ] );
    ]
