(* Tests for the security model: transitions, observations, invariants
   on reachable states, noninterference lemmas, attack detection. *)

open Security
open Hyperenclave
module Word = Mir.Word

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let layout = Layout.default Geometry.tiny
let pageL = Int64.of_int (Geometry.page_size Geometry.tiny)
let page_va i = Int64.mul pageL (Int64.of_int i)
let mbuf_page = 8 (* tiny virtual space: 16 pages; window placed at page 8 *)

let stepv what st a = ok what (Transition.step st a)

let disabled what st a =
  match Transition.step st a with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: action should be disabled" what

(* Boot, create an enclave with two ELRANGE pages, add both, seal. *)
let enclave_ready () =
  let st = State.boot layout in
  let st =
    stepv "create" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 2; mbuf_va = page_va mbuf_page })
  in
  let eid = Int64.to_int (ok "eid" (State.reg st 1)) in
  let st = stepv "add0" st (Transition.Hc_add_page { eid; va = 0L }) in
  let st = stepv "add1" st (Transition.Hc_add_page { eid; va = page_va 1 }) in
  let st = stepv "seal" st (Transition.Hc_init_done { eid }) in
  (st, eid)

(* ------------------------------------------------------------------ *)
(* Transitions                                                         *)

let test_os_memory_roundtrip () =
  let st = State.boot layout in
  let st = stepv "const" st (Transition.Const { dst = 1; value = 0xFEEDL }) in
  let st = stepv "store" st (Transition.Store { src = 1; va = page_va 2 }) in
  let st = stepv "load" st (Transition.Load { dst = 2; va = page_va 2 }) in
  Alcotest.(check int64) "roundtrip" 0xFEEDL (ok "r2" (State.reg st 2))

let test_os_cannot_touch_secure () =
  let st = State.boot layout in
  disabled "load frame area" st
    (Transition.Load { dst = 0; va = layout.Layout.frame_base });
  disabled "store epc" st (Transition.Store { src = 0; va = layout.Layout.epc_base });
  disabled "unaligned" st (Transition.Load { dst = 0; va = 3L })

let test_hypercalls_from_enclave_disabled () =
  let st, eid = enclave_ready () in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  disabled "nested create" st
    (Transition.Hc_create
       { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page });
  disabled "nested add" st (Transition.Hc_add_page { eid; va = 0L });
  disabled "nested enter" st (Transition.Hc_enter { eid })

let test_enter_exit_context_switch () =
  let st, eid = enclave_ready () in
  let st = stepv "os reg" st (Transition.Const { dst = 3; value = 111L }) in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  Alcotest.(check int64) "enclave starts zeroed" 0L (ok "r3" (State.reg st 3));
  let st = stepv "encl reg" st (Transition.Const { dst = 3; value = 222L }) in
  let st = stepv "exit" st (Transition.Hc_exit) in
  Alcotest.(check int64) "os regs restored" 111L (ok "r3" (State.reg st 3));
  let st = stepv "re-enter" st (Transition.Hc_enter { eid }) in
  Alcotest.(check int64) "enclave regs restored" 222L (ok "r3" (State.reg st 3))

let test_enter_requires_initialized () =
  let st = State.boot layout in
  let st =
    stepv "create" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
  in
  let eid = Int64.to_int (ok "eid" (State.reg st 1)) in
  disabled "enter before init" st (Transition.Hc_enter { eid })

let test_enclave_memory_isolation () =
  let st, eid = enclave_ready () in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  (* enclave can use its own pages *)
  let st = stepv "const" st (Transition.Const { dst = 0; value = 77L }) in
  let st = stepv "store" st (Transition.Store { src = 0; va = page_va 1 }) in
  let st = stepv "load" st (Transition.Load { dst = 1; va = page_va 1 }) in
  Alcotest.(check int64) "own page roundtrip" 77L (ok "r1" (State.reg st 1));
  (* but nothing outside ELRANGE + mbuf window *)
  disabled "normal memory" st (Transition.Load { dst = 0; va = page_va 2 });
  disabled "unmapped high" st (Transition.Load { dst = 0; va = page_va 15 })

let test_mbuf_oracle_semantics () =
  let st, eid = enclave_ready () in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  (* store to the marshalling window is accepted but ignored *)
  let st = stepv "const" st (Transition.Const { dst = 0; value = 1234L }) in
  let before = st.State.mon.Absdata.phys in
  let st = stepv "mbuf store" st (Transition.Store { src = 0; va = page_va mbuf_page }) in
  Alcotest.(check bool) "store ignored" true
    (Phys_mem.equal before st.State.mon.Absdata.phys);
  (* loads come from the principal's own oracle *)
  let st1 = stepv "mbuf load" st (Transition.Load { dst = 1; va = page_va mbuf_page }) in
  let expected, _ = Oracle.take (State.oracle_of st (Principal.Enclave eid)) in
  Alcotest.(check int64) "oracle value" expected (ok "r1" (State.reg st1 1));
  Alcotest.(check int) "position advanced" 1
    (Oracle.position (State.oracle_of st1 (Principal.Enclave eid)));
  (* the OS's stream is untouched *)
  Alcotest.(check int) "other stream untouched" 0
    (Oracle.position (State.oracle_of st1 Principal.Os))

(* A principal with no saved context or oracle reads one shared default
   of each.  An enclave entered for the first time starts on the shared
   zero context, so its steps must copy it, never write it: afterwards
   another absent principal still reads zeros, and the views of the
   state before the steps are unchanged.  The same holds for the
   shared oracle after a declassified load. *)
let test_shared_defaults_stay_zero () =
  let pre, eid = enclave_ready () in
  let absent = Principal.Enclave (eid + 1) in
  let observers = [ Principal.Os; Principal.Enclave eid; absent ] in
  let views st = List.map (fun p -> ok "observe" (Observation.observe st p)) observers in
  let before = views pre in
  let st = stepv "enter" pre (Transition.Hc_enter { eid }) in
  let st = stepv "const" st (Transition.Const { dst = 0; value = 0x5EL }) in
  let st = stepv "compute" st (Transition.Compute { dst = 1; src1 = 0; src2 = 0 }) in
  Alcotest.(check int64) "r1 computed" 0xBCL (ok "r1" (State.reg st 1));
  let zeros = State.zero_regs () in
  Alcotest.(check bool) "absent context still zero" true
    (State.regs_equal zeros (State.saved_ctx st absent));
  Alcotest.(check bool) "entered enclave's pre-state context still zero" true
    (State.regs_equal zeros (State.saved_ctx pre (Principal.Enclave eid)));
  Alcotest.(check bool) "pre-state views unchanged" true
    (List.for_all2 Observation.view_equal before (views pre));
  (* a declassified load consumes the enclave's own stream *)
  let st = stepv "mbuf load" st (Transition.Load { dst = 2; va = page_va mbuf_page }) in
  let v, st' = State.take_oracle st absent in
  let expected, _ = Oracle.take (Oracle.create ()) in
  Alcotest.(check int64) "a fresh stream's first value" expected v;
  Alcotest.(check int) "taken from the absent principal's stream" 1
    (Oracle.position (State.oracle_of st' absent));
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool) what true
        (Oracle.equal_stream (Oracle.create ()) (State.oracle_of s (Principal.Enclave (eid + 2)))))
    [ ("another absent oracle is fresh", st'); ("and in the pre-state", pre) ];
  Alcotest.(check bool) "pre-state views unchanged after the loads" true
    (List.for_all2 Observation.view_equal before (views pre))

(* ------------------------------------------------------------------ *)
(* EREMOVE (extension)                                                 *)

let test_remove_page_lifecycle () =
  let st = State.boot layout in
  let st =
    stepv "create" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 2; mbuf_va = page_va mbuf_page })
  in
  let eid = Int64.to_int (ok "eid" (State.reg st 1)) in
  let st = stepv "add" st (Transition.Hc_add_page { eid; va = 0L }) in
  (* remove it again *)
  let st = stepv "remove" st (Transition.Hc_remove_page { eid; va = 0L }) in
  Alcotest.(check int64) "remove status ok" 0L (ok "r0" (State.reg st 0));
  let e = ok "find" (Absdata.find_enclave st.State.mon eid) in
  Alcotest.(check bool) "mapping gone" true
    (ok "q" (Pt_flat.query st.State.mon ~root:e.Enclave.ept_root ~va:0L) = None);
  Alcotest.(check int) "epcm freed" 0 (Epcm.valid_count st.State.mon.Absdata.epcm);
  ok "invariants" (Invariants.check st.State.mon);
  (* double remove is rejected *)
  let st = stepv "re-remove" st (Transition.Hc_remove_page { eid; va = 0L }) in
  Alcotest.(check int64) "double remove invalid" 1L (ok "r0" (State.reg st 0));
  (* the page is reusable: add goes back to EPC page 0 *)
  let st = stepv "re-add" st (Transition.Hc_add_page { eid; va = page_va 1 }) in
  Alcotest.(check int64) "re-add ok" 0L (ok "r0" (State.reg st 0));
  match ok "epcm" (Epcm.get st.State.mon.Absdata.epcm 0) with
  | Epcm.Valid { va; _ } -> Alcotest.(check int64) "page 0 reused" (page_va 1) va
  | Epcm.Free -> Alcotest.fail "page 0 not reused"

let test_remove_page_scrubs () =
  let st, eid = enclave_ready () in
  (* sealed enclaves cannot shed pages *)
  let st_sealed = stepv "remove sealed" st (Transition.Hc_remove_page { eid; va = 0L }) in
  Alcotest.(check int64) "bad state" 3L (ok "r0" (State.reg st_sealed 0));
  (* start over, write a secret, remove, check the frame is zeroed *)
  let st = State.boot layout in
  let st =
    stepv "create" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
  in
  let eid = Int64.to_int (ok "eid" (State.reg st 1)) in
  let st = stepv "add" st (Transition.Hc_add_page { eid; va = 0L }) in
  (* plant the secret directly in the EPC page (the enclave is not
     sealed, so it cannot run; a buggy monitor path could have left
     data there) *)
  let hpa = Layout.epc_page_addr layout 0 in
  let phys = ok "write" (Phys_mem.write64 st.State.mon.Absdata.phys hpa 0x5EC2E7L) in
  let st = { st with State.mon = { st.State.mon with Absdata.phys } } in
  let st = stepv "remove" st (Transition.Hc_remove_page { eid; va = 0L }) in
  Alcotest.(check int64) "scrubbed" 0L
    (ok "read" (Phys_mem.read64 st.State.mon.Absdata.phys hpa))

let test_remove_page_wrong_owner () =
  let st = State.boot layout in
  let st =
    stepv "create1" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
  in
  let e1 = Int64.to_int (ok "eid" (State.reg st 1)) in
  let st = stepv "add1" st (Transition.Hc_add_page { eid = e1; va = 0L }) in
  let st =
    stepv "create2" st
      (Transition.Hc_create
         { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
  in
  let e2 = Int64.to_int (ok "eid" (State.reg st 1)) in
  (* e2 has no page at va 0; removing must fail and not disturb e1 *)
  let st = stepv "cross remove" st (Transition.Hc_remove_page { eid = e2; va = 0L }) in
  Alcotest.(check int64) "rejected" 1L (ok "r0" (State.reg st 0));
  match ok "epcm" (Epcm.get st.State.mon.Absdata.epcm 0) with
  | Epcm.Valid { eid; _ } -> Alcotest.(check int) "still owned by e1" e1 eid
  | Epcm.Free -> Alcotest.fail "e1's page was stolen"

(* ------------------------------------------------------------------ *)
(* TLB consistency                                                     *)

(* The cleaner variant: e1 stays unsealed (pages can be removed), and
   its "execution" is modelled by warming the TLB through a direct
   resolve — which the model performs on any load, including by the
   monitor acting for the enclave during attestation-style reads. *)
let test_stale_tlb () =
  let run ~flush =
    let st = State.boot layout in
    let st =
      stepv "create1" st
        (Transition.Hc_create
           { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
    in
    let e1 = Int64.to_int (ok "eid" (State.reg st 1)) in
    let st = stepv "add1" st (Transition.Hc_add_page { eid = e1; va = 0L }) in
    (* warm e1's TLB entry by simulating its access: fill directly, as
       an enter/load would once sealed *)
    let geom = Hyperenclave.Absdata.geom st.State.mon in
    let e1r = ok "find" (Absdata.find_enclave st.State.mon e1) in
    let hpa, flags =
      match ok "walk" (Nested.enclave_translate st.State.mon e1r ~va:0L) with
      | Some (hpa, f) -> (hpa, f)
      | None -> Alcotest.fail "e1 page not mapped"
    in
    let st =
      {
        st with
        State.tlb =
          Tlb.fill st.State.tlb (Principal.Enclave e1) ~va_page:0L
            { Tlb.hpa_page = Geometry.page_base geom hpa; flags };
      }
    in
    (* the OS removes the page (buggy monitor may skip the flush) ... *)
    let st =
      ok "remove" (Transition.step ~flush st (Transition.Hc_remove_page { eid = e1; va = 0L }))
    in
    Alcotest.(check int64) "remove ok" 0L (ok "r0" (State.reg st 0));
    (* ... and gives it to a second enclave, which stores a secret *)
    let st =
      stepv "create2" st
        (Transition.Hc_create
           { elrange_base = 0L; elrange_pages = 1; mbuf_va = page_va mbuf_page })
    in
    let e2 = Int64.to_int (ok "eid" (State.reg st 1)) in
    let st = stepv "add2" st (Transition.Hc_add_page { eid = e2; va = 0L }) in
    let st = stepv "seal2" st (Transition.Hc_init_done { eid = e2 }) in
    let st = stepv "enter2" st (Transition.Hc_enter { eid = e2 }) in
    let st = stepv "const" st (Transition.Const { dst = 0; value = 0x5EC2E7L }) in
    let st = stepv "store" st (Transition.Store { src = 0; va = 0L }) in
    let st = stepv "exit2" st Transition.Hc_exit in
    (* now e1 (sealed late, after the removal) runs and loads va 0 *)
    let st = stepv "seal1" st (Transition.Hc_init_done { eid = e1 }) in
    let st = stepv "enter1" st (Transition.Hc_enter { eid = e1 }) in
    Transition.step st (Transition.Load { dst = 1; va = 0L })
  in
  (* with the flush: the stale entry is gone, the load faults *)
  (match run ~flush:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flushed TLB must fault on the removed page");
  (* without: e1 reads e2's secret through the stale translation *)
  match run ~flush:false with
  | Error e -> Alcotest.failf "stale entry should have hit: %s" e
  | Ok st ->
      Alcotest.(check int64) "isolation violated through stale TLB" 0x5EC2E7L
        (ok "r1" (State.reg st 1))

let test_tlb_tagging () =
  (* translations cached for one principal are invisible to others *)
  let st, eid = enclave_ready () in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  let st = stepv "load" st (Transition.Load { dst = 0; va = 0L }) in
  Alcotest.(check bool) "enclave entry cached" true
    (Tlb.lookup st.State.tlb (Principal.Enclave eid) ~va_page:0L <> None);
  Alcotest.(check bool) "not visible to the OS tag" true
    (Tlb.lookup st.State.tlb Principal.Os ~va_page:0L = None);
  (* the OS's own accesses fill its own tag *)
  let st = stepv "exit" st Transition.Hc_exit in
  let st = stepv "os load" st (Transition.Load { dst = 0; va = page_va 2 }) in
  Alcotest.(check bool) "os entry cached" true
    (Tlb.lookup st.State.tlb Principal.Os ~va_page:(page_va 2) <> None)

(* ------------------------------------------------------------------ *)
(* Invariants on reachable states                                      *)

let test_invariants_at_boot () =
  ok "boot invariants" (Invariants.check (State.boot layout).State.mon)

let test_invariants_after_lifecycle () =
  let st, _ = enclave_ready () in
  ok "lifecycle invariants" (Invariants.check st.State.mon)

let test_invariants_on_traces () =
  List.iter
    (fun (label, d) ->
      match Invariants.check d with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invariant violated on reachable state: %s" label msg)
    (Check.Gen.absdata_states ~n:25 ~seed:42 ~steps:40 layout)

let test_invariants_preserved_by_battery () =
  let states = Check.Gen.states ~n:10 ~seed:7 ~steps:30 layout in
  let actions = Check.Gen.action_battery layout in
  List.iter
    (fun (label, st) ->
      ok (label ^ " pre") (Invariants.check st.State.mon);
      List.iter
        (fun a ->
          match Transition.step st a with
          | Error _ -> ()
          | Ok st' -> (
              match Invariants.check st'.State.mon with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "%s / %s broke invariant: %s" label
                    (Transition.action_to_string a) msg))
        actions)
    states

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let test_observation_components () =
  let st, eid = enclave_ready () in
  let v_os = ok "os view" (Observation.observe st Principal.Os) in
  Alcotest.(check bool) "os active" true v_os.Observation.is_active;
  Alcotest.(check bool) "os sees cpu" true (v_os.Observation.cpu_regs <> None);
  (* OS reaches exactly its normal pages *)
  Alcotest.(check int) "os mappings" layout.Layout.normal_pages
    (List.length v_os.Observation.mappings);
  (* mbuf page excluded from contents *)
  Alcotest.(check int) "os private pages" (layout.Layout.normal_pages - 1)
    (List.length v_os.Observation.pages);
  let v_e = ok "enclave view" (Observation.observe st (Principal.Enclave eid)) in
  Alcotest.(check bool) "enclave inactive" false v_e.Observation.is_active;
  Alcotest.(check bool) "enclave cpu hidden" true (v_e.Observation.cpu_regs = None);
  (* 2 ELRANGE pages + 1 mbuf page mapped; only the 2 private in contents *)
  Alcotest.(check int) "enclave mappings" 3 (List.length v_e.Observation.mappings);
  Alcotest.(check int) "enclave private pages" 2 (List.length v_e.Observation.pages);
  let v_ghost = ok "ghost" (Observation.observe st (Principal.Enclave 99)) in
  Alcotest.(check int) "nonexistent enclave sees nothing" 0
    (List.length v_ghost.Observation.mappings)

let test_perturbation_invisible () =
  let st, eid = enclave_ready () in
  List.iter
    (fun observer ->
      let st' = Check.Gen.perturb_secrets ~seed:99 ~observer st in
      match Observation.indistinguishable observer st st' with
      | Ok true -> ()
      | Ok false ->
          Alcotest.failf "perturbation visible to %s" (Principal.to_string observer)
      | Error msg -> Alcotest.failf "observe failed: %s" msg)
    [ Principal.Os; Principal.Enclave eid ]

(* Writes by one enclave are visible to itself but not to others. *)
let test_store_visibility () =
  let st, eid = enclave_ready () in
  let st = stepv "enter" st (Transition.Hc_enter { eid }) in
  let st0 = st in
  let st = stepv "const" st (Transition.Const { dst = 0; value = 5L }) in
  let st = stepv "store" st (Transition.Store { src = 0; va = 0L }) in
  (* visible to the writer *)
  Alcotest.(check bool) "visible to writer" false
    (ok "self" (Observation.indistinguishable (Principal.Enclave eid) st0 st));
  (* invisible to the OS *)
  Alcotest.(check bool) "invisible to OS" true
    (ok "os" (Observation.indistinguishable Principal.Os st0 st))

(* The printers that name principals in obligation ids and print
   flags into state keys, written out literally. *)
let test_printers () =
  Alcotest.(check (list string))
    "Flags.to_string over Flags.all"
    [ "----"; "---H"; "--U-"; "--UH"; "-W--"; "-W-H"; "-WU-"; "-WUH";
      "P---"; "P--H"; "P-U-"; "P-UH"; "PW--"; "PW-H"; "PWU-"; "PWUH" ]
    (List.map Flags.to_string Flags.all);
  Alcotest.(check (list string))
    "Principal.to_string"
    [ "primary-os"; "enclave-0"; "enclave-1"; "enclave-42" ]
    (List.map Principal.to_string
       [ Principal.Os; Principal.Enclave 0; Principal.Enclave 1; Principal.Enclave 42 ])

let observers = [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ]

(* The reuse law: after a step, [indistinguishable_after] and
   [unchanged_after] return exactly what the full comparison returns,
   over secret pairs for every observer, reachable states, a state
   whose enclave observation fails, and every action of the battery and
   of the model checker's universe.  Each form must take both of its
   branches (monitor kept, monitor changed), and the one-state form
   must meet an observation error with the monitor kept. *)
let test_reuse_law () =
  let actions =
    Check.Gen.action_battery layout
    @ List.filter_map
        (function Fault.Chaos.Act a -> Some a | Fault.Chaos.Inject _ -> None)
        (Mc.Universe.events layout)
  in
  let result = Alcotest.(result bool string) in
  let kept = Array.make 2 0 and changed = Array.make 2 0 in
  let branch form mon_kept =
    if mon_kept then kept.(form) <- kept.(form) + 1
    else changed.(form) <- changed.(form) + 1
  in
  List.iter
    (fun p ->
      List.iter
        (fun (label, s1, s2) ->
          if Observation.indistinguishable p s1 s2 = Ok true then
            List.iter
              (fun a ->
                match (Transition.step s1 a, Transition.step s2 a) with
                | Ok s1', Ok s2' ->
                    branch 0
                      (s1'.State.mon == s1.State.mon
                      && s2'.State.mon == s2.State.mon);
                    Alcotest.check result
                      (Printf.sprintf "%s / %s / %s" (Principal.to_string p)
                         label (Transition.action_to_string a))
                      (Observation.indistinguishable p s1' s2')
                      (Observation.indistinguishable_after p ~before:(s1, s2)
                         s1' s2')
                | _ -> ())
              actions)
        (Check.Gen.secret_pairs ~n:12 ~seed:13 ~steps:35 ~observer:p layout))
    observers;
  let broken =
    { (State.boot layout) with
      State.mon = ok "shallow copy" (Attacks.shallow_copy.Attacks.build ()) }
  in
  let failing_kept = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (label, s) ->
          let obs = Observation.observe s p in
          List.iter
            (fun a ->
              match Transition.step s a with
              | Error _ -> ()
              | Ok s' ->
                  branch 1 (s'.State.mon == s.State.mon);
                  if Result.is_error obs && s'.State.mon == s.State.mon then
                    incr failing_kept;
                  let full =
                    match (obs, Observation.observe s' p) with
                    | Ok v, Ok v' -> Ok (Observation.view_equal v v')
                    | Error e, _ | _, Error e -> Error e
                  in
                  Alcotest.check result
                    (Printf.sprintf "%s / %s / %s" (Principal.to_string p)
                       label (Transition.action_to_string a))
                    full
                    (Observation.unchanged_after p ~before:(s, obs) s'))
            actions)
        (("shallow copy", broken)
        :: Check.Gen.states ~n:12 ~seed:11 ~steps:35 layout))
    observers;
  Array.iteri
    (fun form name ->
      if kept.(form) = 0 || changed.(form) = 0 then
        Alcotest.failf "%s form: %d steps kept the monitor, %d changed it" name
          kept.(form) changed.(form))
    [| "pair"; "one-state" |];
  if !failing_kept = 0 then
    Alcotest.fail "no failed observation met a step that kept the monitor"

(* ------------------------------------------------------------------ *)
(* Noninterference lemmas                                              *)

let test_noninterference_lemmas () =
  let states = Check.Gen.states ~n:12 ~seed:11 ~steps:35 layout in
  let actions = Check.Gen.action_battery layout in
  let reports =
    List.concat_map
      (fun observer ->
        let pairs = Check.Gen.secret_pairs ~n:12 ~seed:13 ~steps:35 ~observer layout in
        [
          Noninterference.check_integrity ~observer ~states ~actions;
          Noninterference.check_local_consistency ~observer ~pairs ~actions;
          Noninterference.check_inactive_consistency ~observer ~pairs ~actions;
        ])
      observers
  in
  List.iter
    (fun r ->
      if not (Mirverif.Report.ok r) then
        Alcotest.failf "NI failure:@.%s" (Mirverif.Report.to_string r);
      if r.Mirverif.Report.passed = 0 then
        Alcotest.failf "%s: vacuous (no case passed)" r.Mirverif.Report.name)
    reports

(* A state with a cross-enclave alias must violate integrity: the
   attacker enclave writes through the alias and the victim sees it. *)
let test_alias_breaks_integrity () =
  let d = ok "alias build" (Attacks.cross_enclave_alias.Attacks.build ()) in
  let o = Hypercall.init_done d ~eid:2 in
  let st = { (State.boot layout) with State.mon = o.Hypercall.d } in
  let st = stepv "enter attacker" st (Transition.Hc_enter { eid = 2 }) in
  (* load a distinctive value first, then overwrite through the alias *)
  let st = stepv "arm" st (Transition.Const { dst = 0; value = 0xBADL }) in
  let report =
    Noninterference.check_integrity ~observer:(Principal.Enclave 1)
      ~states:[ ("aliased", st) ]
      ~actions:[ Transition.Store { src = 0; va = page_va 1 } ]
  in
  Alcotest.(check bool) "alias detected as NI violation" false (Mirverif.Report.ok report)

let test_trace_noninterference () =
  List.iter
    (fun observer ->
      let pairs = Check.Gen.secret_pairs ~n:8 ~seed:31 ~steps:30 ~observer layout in
      let schedules = Check.Gen.schedules ~n:8 ~len:15 ~seed:37 layout in
      let r = Noninterference.check_trace ~observer ~pairs ~schedules in
      if not (Mirverif.Report.ok r) then
        Alcotest.failf "%s" (Mirverif.Report.to_string r);
      if r.Mirverif.Report.passed = 0 then
        Alcotest.failf "%s: vacuous" r.Mirverif.Report.name)
    [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ]

(* Failing hypercalls are transactional: the monitor state is exactly
   the pre-state whenever the status register reports an error. *)
let prop_hypercalls_transactional =
  QCheck2.Test.make ~count:60 ~name:"failing hypercalls leave the monitor unchanged"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 10_000) (QCheck2.Gen.int_bound 10_000))
    (fun (seed, aseed) ->
      let st = Check.Gen.trace ~seed ~steps:20 layout in
      let action, _ = Check.Gen.random_action (Check.Rng.make aseed) layout in
      let is_hypercall =
        match action with
        | Transition.Hc_create _ | Transition.Hc_add_page _
        | Transition.Hc_remove_page _ | Transition.Hc_init_done _ ->
            true
        | _ -> false
      in
      if not (is_hypercall && Principal.equal st.State.active Principal.Os) then true
      else
        match Transition.step st action with
        | Error _ -> true
        | Ok st' -> (
            match State.reg st' 0 with
            | Ok 0L -> true (* success: state may change *)
            | Ok _ -> Absdata.equal st.State.mon st'.State.mon
            | Error _ -> false))

(* Enter followed by exit restores every principal's observation. *)
let prop_enter_exit_roundtrip =
  QCheck2.Test.make ~count:40 ~name:"enter;exit preserves all observations"
    (QCheck2.Gen.int_bound 10_000)
    (fun seed ->
      let st = Check.Gen.trace ~seed ~steps:25 layout in
      match st.State.active with
      | Principal.Enclave _ -> true (* only test from the OS *)
      | Principal.Os -> (
          let entered =
            List.find_map
              (fun eid ->
                match Transition.step st (Transition.Hc_enter { eid }) with
                | Ok s -> Some s
                | Error _ -> None)
              [ 1; 2; 3; 4 ]
          in
          match entered with
          | None -> true
          | Some st1 -> (
              match Transition.step st1 Transition.Hc_exit with
              | Error _ -> false
              | Ok st2 ->
                  List.for_all
                    (fun p ->
                      match Observation.indistinguishable p st st2 with
                      | Ok same -> same
                      | Error _ -> false)
                    [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ])))

(* Loads never change anything any principal can observe except the
   loader's own registers and oracle. *)
let prop_loads_are_read_only =
  QCheck2.Test.make ~count:60 ~name:"loads only touch the loader's registers"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 10_000) (QCheck2.Gen.int_bound 15))
    (fun (seed, vp) ->
      let st = Check.Gen.trace ~seed ~steps:25 layout in
      match Transition.step st (Transition.Load { dst = 1; va = page_va vp }) with
      | Error _ -> true
      | Ok st' ->
          Phys_mem.equal st.State.mon.Absdata.phys st'.State.mon.Absdata.phys
          && Absdata.equal st.State.mon st'.State.mon)

(* ------------------------------------------------------------------ *)
(* TLB structure properties                                            *)

let tlb_principal_of i = [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ]
  |> Fun.flip List.nth (i mod 3)

let tlb_entry va = { Tlb.hpa_page = Int64.logxor va 0x5AL; flags = Flags.user_rw }

let tlb_of_fills fills =
  List.fold_left
    (fun t (i, va) -> Tlb.fill t (tlb_principal_of i) ~va_page:va (tlb_entry va))
    Tlb.empty fills

(* Random fills across principals and the full unsigned VA range —
   QCheck2's int64 generator covers values at and above
   0x8000_0000_0000_0000, which are negative as signed int64. *)
let gen_tlb_fills =
  QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 2) int64))

let prop_tlb_flush_principal_exact =
  QCheck2.Test.make ~count:100
    ~name:"flush_principal removes exactly that principal's entries"
    (QCheck2.Gen.pair gen_tlb_fills (QCheck2.Gen.int_range 0 2))
    (fun (fills, pi) ->
      let prin = tlb_principal_of pi in
      let tlb = tlb_of_fills fills in
      let flushed = Tlb.flush_principal tlb prin in
      let survivors =
        List.filter
          (fun (p, _, _) -> not (Principal.equal p prin))
          (Tlb.to_list tlb)
      in
      Tlb.to_list flushed = survivors
      && List.for_all
           (fun (_, va, _) -> Tlb.lookup flushed prin ~va_page:va = None)
           (Tlb.to_list tlb))

(* The total enabledness enumerator must agree with the semantics: an
   action passes [precondition] exactly when [step] does not return a
   precondition error.  The model checker trusts this to enumerate
   enabled moves without executing them, so it is pinned in both
   directions over reachable states and the whole action battery. *)
let prop_precondition_agrees_with_step =
  QCheck2.Test.make ~count:60 ~name:"precondition agrees with step enabledness"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 10_000) QCheck2.Gen.bool)
    (fun (seed, flush) ->
      let st = Check.Gen.trace ~seed ~steps:15 layout in
      let battery = Check.Gen.action_battery layout in
      let enabled = Transition.enabled_of st battery in
      List.for_all
        (fun a ->
          let p = Result.is_ok (Transition.precondition st a) in
          let s = Result.is_ok (Transition.step ~flush st a) in
          p = s && List.mem a enabled = p)
        battery)

let prop_tlb_unsigned_va_order =
  QCheck2.Test.make ~count:100
    ~name:"to_list orders VAs by unsigned comparison within a principal"
    gen_tlb_fills
    (fun fills ->
      let rec strictly_sorted = function
        | (p1, v1, _) :: ((p2, v2, _) :: _ as rest) ->
            let c = Principal.compare p1 p2 in
            (c < 0 || (c = 0 && Int64.unsigned_compare v1 v2 < 0))
            && strictly_sorted rest
        | _ -> true
      in
      strictly_sorted (Tlb.to_list (tlb_of_fills fills)))

(* The half-space boundary, deterministically: VAs at and above
   0x8000_0000_0000_0000 must sort after small ones and stay
   individually addressable. *)
let test_tlb_unsigned_boundary () =
  let high = 0x8000_0000_0000_0000L in
  let e hpa = { Tlb.hpa_page = hpa; flags = Flags.user_rw } in
  let t = Tlb.fill Tlb.empty Principal.Os ~va_page:high (e 10L) in
  let t = Tlb.fill t Principal.Os ~va_page:1L (e 20L) in
  let t = Tlb.fill t Principal.Os ~va_page:Int64.minus_one (e 30L) in
  Alcotest.(check int) "three distinct entries" 3 (Tlb.entry_count t);
  (match Tlb.lookup t Principal.Os ~va_page:high with
  | Some { Tlb.hpa_page = 10L; _ } -> ()
  | _ -> Alcotest.fail "lookup above the sign boundary");
  (match Tlb.lookup t Principal.Os ~va_page:1L with
  | Some { Tlb.hpa_page = 20L; _ } -> ()
  | _ -> Alcotest.fail "lookup below the sign boundary");
  Alcotest.(check (list int64)) "unsigned ascending order"
    [ 1L; high; Int64.minus_one ]
    (List.map (fun (_, va, _) -> va) (Tlb.to_list t));
  let t = Tlb.flush_va t Principal.Os ~va_page:high in
  Alcotest.(check int) "flush_va removes only the boundary VA" 2 (Tlb.entry_count t);
  Alcotest.(check bool) "boundary VA gone" true
    (Tlb.lookup t Principal.Os ~va_page:high = None)

(* ------------------------------------------------------------------ *)
(* Attack scenarios (Fig. 5 + shallow copy)                            *)

let test_attack_scenarios () =
  List.iter
    (fun s ->
      match Attacks.run s with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    Attacks.all

let () =
  Alcotest.run "security"
    [
      ( "transitions",
        [
          Alcotest.test_case "os memory roundtrip" `Quick test_os_memory_roundtrip;
          Alcotest.test_case "os cannot touch secure" `Quick test_os_cannot_touch_secure;
          Alcotest.test_case "enclave hypercalls disabled" `Quick
            test_hypercalls_from_enclave_disabled;
          Alcotest.test_case "enter/exit context switch" `Quick
            test_enter_exit_context_switch;
          Alcotest.test_case "enter requires initialized" `Quick
            test_enter_requires_initialized;
          Alcotest.test_case "enclave memory isolation" `Quick
            test_enclave_memory_isolation;
          Alcotest.test_case "mbuf oracle semantics" `Quick test_mbuf_oracle_semantics;
          Alcotest.test_case "shared defaults stay zero" `Quick test_shared_defaults_stay_zero;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "stale entry attack (flush vs no-flush)" `Quick test_stale_tlb;
          Alcotest.test_case "tagging isolates principals" `Quick test_tlb_tagging;
          Alcotest.test_case "unsigned VA boundary" `Quick test_tlb_unsigned_boundary;
        ] );
      ( "eremove",
        [
          Alcotest.test_case "lifecycle" `Quick test_remove_page_lifecycle;
          Alcotest.test_case "scrubbing" `Quick test_remove_page_scrubs;
          Alcotest.test_case "wrong owner" `Quick test_remove_page_wrong_owner;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "at boot" `Quick test_invariants_at_boot;
          Alcotest.test_case "after lifecycle" `Quick test_invariants_after_lifecycle;
          Alcotest.test_case "on random traces" `Quick test_invariants_on_traces;
          Alcotest.test_case "preserved by battery" `Quick
            test_invariants_preserved_by_battery;
        ] );
      ( "observation",
        [
          Alcotest.test_case "components" `Quick test_observation_components;
          Alcotest.test_case "secret perturbation invisible" `Quick
            test_perturbation_invisible;
          Alcotest.test_case "store visibility" `Quick test_store_visibility;
          Alcotest.test_case "reuse law" `Quick test_reuse_law;
        ] );
      ( "printers",
        [ Alcotest.test_case "flags and principals" `Quick test_printers ] );
      ( "noninterference",
        [
          Alcotest.test_case "lemmas 5.2-5.4" `Slow test_noninterference_lemmas;
          Alcotest.test_case "theorem 5.1 traces" `Slow test_trace_noninterference;
          Alcotest.test_case "alias breaks integrity" `Quick test_alias_breaks_integrity;
        ] );
      ("attacks", [ Alcotest.test_case "fig5 + shallow copy" `Quick test_attack_scenarios ]);
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hypercalls_transactional;
            prop_enter_exit_roundtrip;
            prop_loads_are_read_only;
            prop_tlb_flush_principal_exact;
            prop_tlb_unsigned_va_order;
            prop_precondition_agrees_with_step;
          ] );
    ]
