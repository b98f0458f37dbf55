(* Differential suite: the closure-compiled executor (Mir.Compile) must
   be observationally identical to the reference interpreter
   (Mir.Interp) — same outcome down to every field (abstract state,
   object memory, return value, step count) and the same error
   classification with identical messages.  The equivalence is pinned on

   - the whole seed stack: every generated code-proof case of every
     function (valid, boundary, malformed-table, and corrupted-state
     inputs alike) runs under both executors;
   - the chaos fixtures: exhaustive single-primitive-failure injection
     (a [map_prims]-wrapped environment compiles against the same body
     memo) and an exhaustive low-fuel ladder, which pins the fuel/step
     accounting one step at a time. *)

open Hyperenclave
module Interp = Mir.Interp
module Compile = Mir.Compile
module Value = Mir.Value
module Mem = Mir.Mem

let layout = Layout.default Geometry.tiny

let mem_equal m1 m2 =
  Mem.cardinal m1 = Mem.cardinal m2 && Mem.equal_on (Mem.bases m1) m1 m2

(* structural comparison of the two executors' results; fails loudly
   with the diverging field *)
let assert_same ~case (ri : (Absdata.t Interp.outcome, Interp.error) result)
    (rc : (Absdata.t Interp.outcome, Interp.error) result) =
  match (ri, rc) with
  | Ok a, Ok b ->
      if not (Absdata.equal a.Interp.abs b.Interp.abs) then
        Alcotest.failf "%s: abstract states differ" case;
      if not (Value.equal a.Interp.ret b.Interp.ret) then
        Alcotest.failf "%s: return values differ: %s vs %s" case
          (Value.to_string a.Interp.ret) (Value.to_string b.Interp.ret);
      if a.Interp.steps <> b.Interp.steps then
        Alcotest.failf "%s: step counts differ: %d vs %d" case a.Interp.steps
          b.Interp.steps;
      if not (mem_equal a.Interp.mem b.Interp.mem) then
        Alcotest.failf "%s: final memories differ" case
  | Error e1, Error e2 ->
      if e1 <> e2 then
        Alcotest.failf "%s: errors differ: %s vs %s" case
          (Interp.error_to_string e1) (Interp.error_to_string e2)
  | Ok _, Error e ->
      Alcotest.failf "%s: interpreter succeeded, compiled failed: %s" case
        (Interp.error_to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: interpreter failed (%s), compiled succeeded" case
        (Interp.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Whole seed stack: every generated code-proof case, both executors   *)

let test_seed_stack_equivalence () =
  let ctx = Check.Code_proof.ctx layout in
  let fns =
    List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names
  in
  let compared = ref 0 in
  List.iter
    (fun fn ->
      match Check.Code_proof.check_function ctx fn with
      | None -> ()
      | Some (lname, c) ->
          let env = Layers.env_for layout ~layer:lname in
          let cenv = Layers.compiled_for layout ~layer:lname in
          Seq.iter
            (fun (cs : Absdata.t Mirverif.Refine.case) ->
              let fuel = c.Mirverif.Refine.fuel in
              let ri = Interp.call ~fuel env ~abs:cs.abs ~mem:cs.mem fn cs.args in
              let rc = Compile.call ~fuel cenv ~abs:cs.abs ~mem:cs.mem fn cs.args in
              incr compared;
              assert_same ~case:(Printf.sprintf "%s [%s]" fn (cs.label ())) ri rc)
            c.Mirverif.Refine.cases)
    fns;
  (* the suite must actually have covered the stack *)
  Alcotest.(check bool)
    (Printf.sprintf "compared the full case battery (%d cases)" !compared)
    true
    (!compared > 10_000)

(* a function name that resolves to nothing must classify identically *)
let test_unknown_function_equivalence () =
  let env = Layers.env_for layout ~layer:"Hypercalls" in
  let cenv = Layers.compiled_for layout ~layer:"Hypercalls" in
  let abs = Absdata.create layout in
  assert_same ~case:"no such function"
    (Interp.call env ~abs ~mem:Mem.empty "no_such_fn" [])
    (Compile.call cenv ~abs ~mem:Mem.empty "no_such_fn" []);
  assert_same ~case:"arity mismatch"
    (Interp.call env ~abs ~mem:Mem.empty "hc_create" [])
    (Compile.call cenv ~abs ~mem:Mem.empty "hc_create" [])

(* ------------------------------------------------------------------ *)
(* Chaos fixtures                                                      *)

(* every single-primitive-failure injection of the chaos battery,
   replayed under both executors (fresh perturbed environments per
   executor: the wrapper's call counter is stateful) *)
let test_prim_fault_equivalence () =
  List.iter
    (fun (fn, abs, args, _fuel_hi) ->
      let layer =
        match Layers.layer_of_function layout fn with
        | Some l -> l
        | None -> "Hypercalls"
      in
      let env = Layers.env_for layout ~layer in
      let counting, count = Fault.Mir_chaos.perturbed_env ~fail_at:(-1) env in
      (match Interp.call counting ~abs ~mem:Mem.empty fn args with
      | Ok _ | Error _ -> ());
      let prim_calls = !count in
      for i = 0 to prim_calls - 1 do
        let ienv, _ = Fault.Mir_chaos.perturbed_env ~fail_at:i env in
        let cenv, _ = Fault.Mir_chaos.perturbed_env ~fail_at:i env in
        assert_same
          ~case:(Printf.sprintf "%s prim-fault@%d" fn i)
          (Interp.call ienv ~abs ~mem:Mem.empty fn args)
          (Compile.call
             (Compile.compile ~cache:Layers.compile_memo cenv)
             ~abs ~mem:Mem.empty fn args)
      done)
    (Fault.Mir_chaos.targets layout)

(* exhaustive low-fuel ladder: at every budget from 0 to a little past
   the full run, both executors must starve (or finish) identically —
   this pins the per-statement and per-terminator fuel accounting *)
let test_fuel_ladder_equivalence () =
  List.iter
    (fun (fn, abs, args, fuel_hi) ->
      let layer =
        match Layers.layer_of_function layout fn with
        | Some l -> l
        | None -> "Hypercalls"
      in
      let env = Layers.env_for layout ~layer in
      let cenv = Layers.compiled_for layout ~layer in
      let steps =
        match Interp.call env ~abs ~mem:Mem.empty fn args with
        | Ok o -> o.Interp.steps
        | Error _ -> fuel_hi
      in
      for fuel = 0 to min (steps + 2) 400 do
        assert_same
          ~case:(Printf.sprintf "%s fuel=%d" fn fuel)
          (Interp.call ~fuel env ~abs ~mem:Mem.empty fn args)
          (Compile.call ~fuel cenv ~abs ~mem:Mem.empty fn args)
      done)
    (Fault.Mir_chaos.targets layout)

(* ------------------------------------------------------------------ *)
(* Override composition vs monolithic                                  *)

(* Verdict invariance of compositional verification: for every one of
   the 49+1 functions, the full code-proof battery with same-layer
   callees stubbed by their oracle specs ({!Check.Code_proof.
   run_function_composed}) must render the identical report —
   pass/skip/fail per case, reasons included — as the monolithic run
   that executes callee bodies.  This is the equivalence that lets the
   engine pick either executor (and cache either's outcome) without it
   ever being visible in verdicts or stdout. *)
let test_override_composition_verdicts () =
  let ctx = Check.Code_proof.ctx layout in
  let fns =
    List.concat_map (Layers.functions_of_layer layout) Mem_spec.layer_names
  in
  let stubbed = ref 0 in
  List.iter
    (fun fn ->
      match
        (Check.Code_proof.run_function ctx fn,
         Check.Code_proof.run_function_composed ctx fn)
      with
      | None, None -> ()
      | Some (l1, mono), Some (l2, composed) ->
          Alcotest.(check string) (fn ^ ": same owning layer") l1 l2;
          if Layers.same_layer_callees layout fn <> [] then
            incr stubbed;
          Alcotest.(check string)
            (Printf.sprintf "%s: composed report equals monolithic" fn)
            (Mirverif.Report.to_string mono)
            (Mirverif.Report.to_string composed)
      | _ ->
          Alcotest.failf "%s: one mode produced a report, the other did not" fn)
    fns;
  (* the equivalence must have been exercised, not vacuous *)
  Alcotest.(check bool)
    (Printf.sprintf "functions with same-layer stubs covered (%d)" !stubbed)
    true (!stubbed > 0)

let () =
  Alcotest.run "differential"
    [
      ( "compiled-vs-interpreted",
        [
          Alcotest.test_case "whole seed stack" `Quick test_seed_stack_equivalence;
          Alcotest.test_case "unknown function + arity" `Quick
            test_unknown_function_equivalence;
          Alcotest.test_case "chaos prim faults" `Quick test_prim_fault_equivalence;
          Alcotest.test_case "fuel ladder" `Quick test_fuel_ladder_equivalence;
        ] );
      ( "override-vs-monolithic",
        [
          Alcotest.test_case "all functions, full battery" `Quick
            test_override_composition_verdicts;
        ] );
    ]
