(* Tests for the fault-injection and chaos-testing subsystem: plans,
   state-level injection, the chaos driver's checks (transactionality,
   invariants, TLB consistency, graceful degradation), counterexample
   shrinking, and MIR-level primitive/fuel faults. *)

open Hyperenclave
open Security
module Word = Mir.Word

let layout = Layout.default Geometry.tiny
let page_va i = Int64.mul (Int64.of_int (Geometry.page_size Geometry.tiny)) (Int64.of_int i)
let mbuf_page =
  (1 lsl (Geometry.va_bits Geometry.tiny - Geometry.tiny.Geometry.page_shift)) / 2

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let step what st a =
  match Transition.step st a with
  | Ok st' -> st'
  | Error msg -> Alcotest.failf "%s: step disabled: %s" what msg

(* A state with one Created enclave holding one EPC page at va 0. *)
let created_enclave () =
  let st = State.boot layout in
  let st =
    step "create" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 2; mbuf_va = page_va mbuf_page })
  in
  let eid = Int64.to_int (ok "eid" (State.reg st 1)) in
  let st = step "add" st (Transition.Hc_add_page { eid; va = 0L }) in
  (st, eid)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let test_shrink_minimal () =
  (* failing iff the list contains 3, 7 and 11 in order *)
  let still_fails xs =
    let rec scan want = function
      | [] -> want = []
      | x :: rest -> (
          match want with
          | w :: ws when x = w -> scan ws rest
          | _ -> scan want rest)
    in
    scan [ 3; 7; 11 ] xs
  in
  let noisy = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
  let shrunk = Check.Shrink.list ~check:still_fails noisy in
  Alcotest.(check (list int)) "1-minimal witness" [ 3; 7; 11 ] shrunk

let test_shrink_not_failing () =
  let xs = [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "non-failing input unchanged" xs
    (Check.Shrink.list ~check:(fun _ -> false) xs)

let test_shrink_single () =
  let shrunk = Check.Shrink.list ~check:(List.mem 5) [ 9; 5; 9; 9; 5 ] in
  Alcotest.(check int) "single element survives" 1 (List.length shrunk);
  Alcotest.(check bool) "it is the witness" true (List.mem 5 shrunk)

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)

let test_exhaust_frames_transactional () =
  let st, eid = created_enclave () in
  let st = ok "exhaust" (Fault.Inject.apply Fault.Plan.Exhaust_frames st) in
  Alcotest.(check int) "pool drained" 0
    (Frame_alloc.free_count st.State.mon.Absdata.falloc);
  (* a hypercall that needs a fresh table must fail with No_memory and
     leave the abstract state untouched *)
  let st' =
    step "create under exhaustion" st
      (Transition.Hc_create
         { elrange_base = page_va 4; elrange_pages = 1; mbuf_va = page_va mbuf_page })
  in
  Alcotest.(check int64) "No_memory status"
    (Hypercall.status_code Hypercall.No_memory)
    (ok "r0" (State.reg st' 0));
  Alcotest.(check bool) "abstract state unchanged" true
    (Absdata.equal st.State.mon st'.State.mon);
  (* remove_page frees the EPC page and needs no new table: recovery *)
  let st' = step "remove" st' (Transition.Hc_remove_page { eid; va = 0L }) in
  Alcotest.(check int64) "remove succeeds under exhaustion"
    (Hypercall.status_code Hypercall.Success)
    (ok "r0" (State.reg st' 0))

let test_pt_bitflip_applies () =
  let st, _ = created_enclave () in
  let f = Fault.Plan.Flip_pt_bit { table = 0; index = 0; bit = 0 } in
  let st' = ok "flip" (Fault.Inject.apply f st) in
  Alcotest.(check bool) "fault corrupts" true (Fault.Plan.corrupts f);
  Alcotest.(check bool) "monitor state changed" false
    (Absdata.equal st.State.mon st'.State.mon)

let test_bitflip_no_tables () =
  (* a pristine state has no installed roots: the fault is a skip *)
  let st = { (State.boot layout) with State.mon = Absdata.create layout } in
  match Fault.Inject.apply (Fault.Plan.Flip_pt_bit { table = 3; index = 1; bit = 5 }) st with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip with no tables should be inapplicable"

let test_epcm_corruption_detected () =
  let st, _ = created_enclave () in
  let f =
    Fault.Plan.Corrupt_epcm { page = 0; state = Epcm.Valid { eid = 99; va = page_va 3 } }
  in
  let st' = ok "corrupt" (Fault.Inject.apply f st) in
  match Invariants.check st'.State.mon with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "EPCM corruption must violate the invariants"

let test_tlb_prefetch_consistent () =
  let st, _ = created_enclave () in
  let st' = ok "prefetch" (Fault.Inject.apply (Fault.Plan.Tlb_prefetch { pick = 0 }) st) in
  Alcotest.(check bool) "an entry was cached" true
    (Tlb.entry_count st'.State.tlb > Tlb.entry_count st.State.tlb);
  ok "prefetch is consistent" (Fault.Chaos.tlb_consistent st')

(* ------------------------------------------------------------------ *)
(* Chaos driver                                                        *)

let test_chaos_correct_monitor () =
  let stats, cx = Fault.Chaos.run ~seed:2024 ~traces:400 ~len:40 layout in
  (match cx with
  | None -> ()
  | Some cx ->
      Alcotest.failf "correct monitor failed chaos: %s"
        (Format.asprintf "%a" Fault.Chaos.pp_counterexample cx));
  Alcotest.(check int) "all traces ran" 400 stats.Fault.Chaos.traces;
  Alcotest.(check bool) "faults were injected" true (stats.Fault.Chaos.faults > 0)

let test_chaos_fault_free () =
  let stats, cx = Fault.Chaos.run ~faults:[] ~seed:7 ~traces:100 ~len:40 layout in
  Alcotest.(check bool) "no counterexample" true (cx = None);
  Alcotest.(check int) "no faults" 0 stats.Fault.Chaos.faults

let test_chaos_finds_and_shrinks_stale_tlb () =
  (* the buggy monitor (remove_page without the flush) must produce a
     stale-TLB counterexample that shrinks to a handful of events *)
  let _, cx = Fault.Chaos.run ~flush:false ~seed:2024 ~traces:3000 ~len:40 layout in
  match cx with
  | None -> Alcotest.fail "chaos failed to find the stale-TLB bug"
  | Some cx ->
      Alcotest.(check string) "violation kind" "tlb-consistency"
        cx.Fault.Chaos.cx_failure.Fault.Chaos.check;
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 6 events" (List.length cx.Fault.Chaos.cx_shrunk))
        true
        (List.length cx.Fault.Chaos.cx_shrunk <= 6);
      (* the witness replays from scratch ... *)
      (match Fault.Chaos.replay ~flush:false layout cx.Fault.Chaos.cx_shrunk with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shrunk witness no longer fails");
      (* ... the printed seed re-derives the full failing trace ... *)
      let replayed =
        Fault.Chaos.events_for ~seed:cx.Fault.Chaos.cx_seed ~len:40 layout
      in
      Alcotest.(check (list string)) "seed reproduces the trace"
        (List.map Fault.Chaos.event_to_string cx.Fault.Chaos.cx_events)
        (List.map Fault.Chaos.event_to_string replayed);
      (* ... and the correct monitor survives the same witness *)
      ok "correct monitor survives the witness"
        (Result.map (fun _ -> ()) (Fault.Chaos.replay ~flush:true layout cx.Fault.Chaos.cx_shrunk)
         |> Result.map_error (fun f -> Format.asprintf "%a" Fault.Chaos.pp_failure f))

(* The 1000-trace campaign at seed 2024 on both monitors, pinned.  Its
   hypercall steps run the code's low specs (Hyperenclave.Hypercall),
   so a change to a status or a state they return moves these totals. *)
let test_chaos_totals_pinned () =
  let totals (s : Fault.Chaos.stats) =
    Fault.Chaos.[ s.traces; s.events; s.faults; s.fault_skips; s.disabled_steps ]
  in
  let stats, cx = Fault.Chaos.run ~seed:2024 ~traces:1000 layout in
  Alcotest.(check (list int)) "correct monitor: traces, events, faults, skips, disabled"
    [ 1000; 27_800; 5_214; 300; 7_509 ] (totals stats);
  Alcotest.(check bool) "correct monitor: no counterexample" true (cx = None);
  let stats, cx = Fault.Chaos.run ~flush:false ~seed:2024 ~traces:1000 layout in
  Alcotest.(check (list int)) "buggy monitor: traces, events, faults, skips, disabled"
    [ 597; 16_399; 2_928; 185; 4_131 ] (totals stats);
  match cx with
  | None -> Alcotest.fail "buggy monitor: no counterexample"
  | Some cx ->
      let f = cx.Fault.Chaos.cx_failure in
      Alcotest.(check (list int)) "seed, events, shrunk, replays, failing event"
        [ 2620; 40; 4; 54; 3 ]
        [
          cx.Fault.Chaos.cx_seed; List.length cx.Fault.Chaos.cx_events;
          List.length cx.Fault.Chaos.cx_shrunk; cx.Fault.Chaos.cx_evals; f.Fault.Chaos.at;
        ];
      Alcotest.(check string) "check" "tlb-consistency" f.Fault.Chaos.check;
      Alcotest.(check (option string)) "failing event" (Some "hc_remove_page(1, 0x0)")
        (Option.map Fault.Chaos.event_to_string f.Fault.Chaos.event)

let test_chaos_minimal_witness_direct () =
  (* the distilled stale-TLB witness: create, add, prefetch, remove *)
  let events =
    [
      Fault.Chaos.Act
        (Transition.Hc_create
           { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page });
      Fault.Chaos.Act (Transition.Hc_add_page { eid = 1; va = 0L });
      Fault.Chaos.Inject (Fault.Plan.Tlb_prefetch { pick = 0 });
      Fault.Chaos.Act (Transition.Hc_remove_page { eid = 1; va = 0L });
    ]
  in
  (match Fault.Chaos.replay ~flush:false layout events with
  | Ok _ -> Alcotest.fail "buggy monitor must fail the 4-event witness"
  | Error f ->
      Alcotest.(check string) "tlb-consistency" "tlb-consistency"
        f.Fault.Chaos.check);
  match Fault.Chaos.replay ~flush:true layout events with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "correct monitor failed the witness: %s"
        (Format.asprintf "%a" Fault.Chaos.pp_failure f)

let test_chaos_truncation_halts () =
  let events =
    [
      Fault.Chaos.Inject Fault.Plan.Truncate;
      (* unreachable: an exception here would otherwise surface *)
      Fault.Chaos.Act (Transition.Const { dst = 99; value = 0L });
    ]
  in
  let sum =
    match Fault.Chaos.replay layout events with
    | Ok sum -> sum
    | Error f ->
        Alcotest.failf "truncated replay failed: %s"
          (Format.asprintf "%a" Fault.Chaos.pp_failure f)
  in
  Alcotest.(check int) "only the truncation ran" 1 sum.Fault.Chaos.ran

(* ------------------------------------------------------------------ *)
(* MIR-level chaos                                                     *)

let test_mir_chaos_graceful () =
  let report, outcomes = Fault.Mir_chaos.run layout in
  if not (Mirverif.Report.ok report) then
    Alcotest.failf "mir chaos not graceful: %s" (Mirverif.Report.to_string report);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.Fault.Mir_chaos.target ^ " exercised primitives")
        true
        (o.Fault.Mir_chaos.prim_calls > 0))
    outcomes

let () =
  Alcotest.run "fault"
    [
      ( "shrink",
        [
          Alcotest.test_case "minimal subsequence" `Quick test_shrink_minimal;
          Alcotest.test_case "non-failing unchanged" `Quick test_shrink_not_failing;
          Alcotest.test_case "single element" `Quick test_shrink_single;
        ] );
      ( "inject",
        [
          Alcotest.test_case "exhaustion is transactional" `Quick
            test_exhaust_frames_transactional;
          Alcotest.test_case "pt bit flip applies" `Quick test_pt_bitflip_applies;
          Alcotest.test_case "bit flip needs tables" `Quick test_bitflip_no_tables;
          Alcotest.test_case "epcm corruption detected" `Quick
            test_epcm_corruption_detected;
          Alcotest.test_case "tlb prefetch consistent" `Quick
            test_tlb_prefetch_consistent;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "correct monitor survives" `Slow test_chaos_correct_monitor;
          Alcotest.test_case "fault-free traces" `Quick test_chaos_fault_free;
          Alcotest.test_case "stale TLB found and shrunk" `Slow
            test_chaos_finds_and_shrinks_stale_tlb;
          Alcotest.test_case "minimal witness direct" `Quick
            test_chaos_minimal_witness_direct;
          Alcotest.test_case "campaign totals pinned" `Quick test_chaos_totals_pinned;
          Alcotest.test_case "truncation halts the trace" `Quick
            test_chaos_truncation_halts;
        ] );
      ( "mir",
        [ Alcotest.test_case "prim/fuel faults graceful" `Quick test_mir_chaos_graceful ] );
    ]
