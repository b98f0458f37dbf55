(* Tests for the bounded model checker: canonical state keys
   (idempotence, agreement with [State.equal], commutation with
   [step]), the static commutation table against the dynamic
   semantics, POR soundness (same reachable states and the same
   violation set with and without reduction), rediscovery of the
   planted stale-TLB bug with its 4-event ddmin witness, determinism
   and serialization of the outcome, and a plain reference BFS that
   must reach the same states and the same invariant and
   TLB-consistency violations as [Explore.run]. *)

open Hyperenclave
open Security
module Chaos = Fault.Chaos
module Explore = Mc.Explore
module State_key = Mc.State_key

let layout = Layout.default Geometry.tiny

let reachable =
  lazy (Check.Gen.states ~n:25 ~seed:2024 ~steps:18 layout)

let exec ~flush st = function
  | Chaos.Act a -> Transition.step ~flush st a
  | Chaos.Inject f -> Fault.Inject.apply f st

(* A reference explorer: plain breadth-first search, as in a textbook
   invariant checker.  It keeps a list of visited states compared with
   [State.equal], steps every universe event from every state of the
   last level, and checks each new state's invariants and TLB
   consistency.  No digest, no reduction, no shared successor rows: it
   shares with [Explore.run] only the semantics it explores.  Returns
   the visited states and the violations as (kind, state) pairs. *)
let reference_explore ~depth ~flush layout =
  let events = Mc.Universe.events layout in
  let check st =
    List.filter_map
      (fun (kind, verdict) -> if Result.is_error verdict then Some (kind, st) else None)
      [ ("invariant", Invariants.check st.State.mon);
        ("tlb-consistency", Chaos.tlb_consistent st) ]
  in
  let visit (visited, next, found) st =
    if List.exists (State.equal st) visited then (visited, next, found)
    else (st :: visited, st :: next, check st @ found)
  in
  let rec level d (visited, last, found) =
    if d = depth || last = [] then (List.rev visited, found)
    else
      let successors =
        List.concat_map
          (fun st ->
            List.filter_map (fun ev -> Result.to_option (exec ~flush st ev)) events)
          (List.rev last)
      in
      level (d + 1) (List.fold_left visit (visited, [], found) successors)
  in
  level 0 (visit ([], [], []) (State.boot layout))

(* The reference's depth-5 runs on tiny, computed once for the two
   tests that read them. *)
let tiny_depth5 =
  let run flush = lazy (reference_explore ~depth:5 ~flush layout) in
  let correct = run true and buggy = run false in
  fun flush -> Lazy.force (if flush then correct else buggy)

(* ------------------------------------------------------------------ *)
(* Canonicalization laws                                               *)

let test_canonicalize_idempotent () =
  List.iter
    (fun (label, st) ->
      let c = State_key.canonicalize st in
      Alcotest.(check string)
        (label ^ ": canonicalize is idempotent")
        (State_key.to_string st)
        (State_key.to_string (State_key.canonicalize c));
      Alcotest.(check string)
        (label ^ ": canonicalization preserves the key")
        (State_key.digest st) (State_key.digest c))
    (Lazy.force reachable)

let test_equal_states_hash_equal () =
  (* every state equals its canonical form and hashes like it: the
     sampled states, and every state a plain BFS of tiny reaches in
     five events on either monitor *)
  List.iter
    (fun (label, st) ->
      let c = State_key.canonicalize st in
      Alcotest.(check bool) (label ^ ": equals its canonical form") true
        (State.equal st c);
      Alcotest.(check string) (label ^ ": and hashes like it")
        (State_key.digest st) (State_key.digest c))
    (Lazy.force reachable
    @ List.concat_map
        (fun flush ->
          List.mapi
            (fun i st -> (Printf.sprintf "bfs state %d (flush=%b)" i flush, st))
            (fst (tiny_depth5 flush)))
        [ true; false ]);
  let a = Check.Gen.trace ~seed:7 ~steps:12 layout in
  let b = Check.Gen.trace ~seed:7 ~steps:12 layout in
  Alcotest.(check bool) "same trace reaches equal states" true (State.equal a b);
  Alcotest.(check string) "and they hash equal" (State_key.digest a)
    (State_key.digest b)

(* A saved context of all zeros is what [State.saved_ctx] returns for a
   principal that has none, so the two states are equal and share a key;
   one nonzero register still tells them apart. *)
let test_zero_context_equals_none () =
  let st = State.boot layout in
  let with_ctx regs =
    { st with State.ctx = Principal.Map.add (Principal.Enclave 1) regs st.State.ctx }
  in
  let zero = with_ctx (State.zero_regs ()) in
  Alcotest.(check bool) "zero context equals none" true (State.equal zero st);
  Alcotest.(check bool) "and the other way round" true (State.equal st zero);
  Alcotest.(check string) "same digest" (State_key.digest st) (State_key.digest zero);
  let regs = State.zero_regs () in
  regs.(2) <- Mir.Word.one;
  let nonzero = with_ctx regs in
  Alcotest.(check bool) "nonzero context differs" false (State.equal nonzero st);
  Alcotest.(check bool) "from a zero one too" false (State.equal nonzero zero);
  Alcotest.(check bool) "and hashes differently" false
    (String.equal (State_key.digest nonzero) (State_key.digest st))

let test_step_commutes_with_canonicalize () =
  (* canonicalize is semantics-preserving: stepping the canonicalized
     state reaches the same key as canonicalizing the stepped state *)
  let actions = Check.Gen.action_battery layout in
  List.iter
    (fun (label, st) ->
      let c = State_key.canonicalize st in
      List.iter
        (fun a ->
          match (Transition.step st a, Transition.step c a) with
          | Ok st', Ok c' ->
              Alcotest.(check string)
                (Printf.sprintf "%s: key after %s" label
                   (Transition.action_to_string a))
                (State_key.digest st') (State_key.digest c')
          | Error e1, Error e2 ->
              Alcotest.(check string)
                (Printf.sprintf "%s: error after %s" label
                   (Transition.action_to_string a))
                e1 e2
          | Ok _, Error e | Error e, Ok _ ->
              Alcotest.failf "%s: enabledness diverged on %s: %s" label
                (Transition.action_to_string a) e)
        actions)
    (Lazy.force reachable)

(* ------------------------------------------------------------------ *)
(* The commutation table against the dynamic semantics                 *)

let test_commutation_table_sound () =
  (* for every pair the static table marks commuting, both orders
     from reachable states converge to the same canonical state, and
     neither event disables the other — under the correct monitor and
     the buggy one (POR runs under [--buggy-tlb] too) *)
  let pairs = Mc.Footprint.commuting_pairs (Mc.Universe.events layout) in
  Alcotest.(check bool) "the table marks some pairs commuting" true
    (List.length pairs > 0);
  let checked = ref 0 in
  List.iter
    (fun flush ->
      List.iter
        (fun (label, st) ->
          List.iter
            (fun (e1, e2) ->
              match (exec ~flush st e1, exec ~flush st e2) with
              | Ok s1, Ok s2 -> (
                  incr checked;
                  match (exec ~flush s1 e2, exec ~flush s2 e1) with
                  | Ok s12, Ok s21 ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s: %s / %s converge (flush=%b)" label
                           (Chaos.event_to_string e1) (Chaos.event_to_string e2)
                           flush)
                        (State_key.digest s12) (State_key.digest s21)
                  | _ ->
                      Alcotest.failf
                        "%s: commuting events disabled each other: %s / %s"
                        label (Chaos.event_to_string e1)
                        (Chaos.event_to_string e2))
              | _ -> ())
            pairs)
        (Lazy.force reachable))
    [ true; false ];
  Alcotest.(check bool) "exercised non-vacuously" true (!checked > 100)

(* ------------------------------------------------------------------ *)
(* POR soundness on whole explorations                                 *)

let violation_ids (o : Explore.outcome) =
  List.sort compare
    (List.map (fun v -> (v.Explore.v_kind, v.Explore.v_state)) o.violations)

let test_por_preserves_outcome () =
  List.iter
    (fun flush ->
      let por = Explore.run (Explore.config ~depth:4 ~flush layout) in
      let nopor =
        Explore.run (Explore.config ~depth:4 ~flush ~por:false layout)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "same reachable states (flush=%b)" flush)
        nopor.Explore.keys por.Explore.keys;
      Alcotest.(check bool)
        (Printf.sprintf "reduction prunes something (flush=%b)" flush)
        true
        (por.Explore.stats.Explore.pruned > 0);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "same violation set (flush=%b)" flush)
        (violation_ids nopor) (violation_ids por))
    [ true; false ]

let test_por_prunes_interleavings () =
  let il_por = Explore.interleavings (Explore.config ~depth:4 ~checks:false layout) in
  let il_full =
    Explore.interleavings
      (Explore.config ~depth:4 ~checks:false ~por:false layout)
  in
  let factor = 1. -. (float_of_int il_por /. float_of_int il_full) in
  if factor < 0.30 then
    Alcotest.failf "POR pruned only %.1f%% of interleavings (%d of %d)"
      (100. *. factor) (il_full - il_por) il_full

(* ------------------------------------------------------------------ *)
(* Clean seed and the planted bug                                      *)

let test_clean_no_violations () =
  let o = Explore.run (Explore.config ~depth:4 layout) in
  (match o.Explore.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "clean monitor violated %s at %s: %s" v.Explore.v_kind
        v.Explore.v_state v.Explore.v_detail);
  Alcotest.(check bool) "explored a real state space" true
    (o.Explore.stats.Explore.explored > 100)

let test_buggy_rediscovers_stale_tlb () =
  let o = Explore.run (Explore.config ~depth:4 ~flush:false layout) in
  let kinds =
    List.sort_uniq compare (List.map (fun v -> v.Explore.v_kind) o.Explore.violations)
  in
  Alcotest.(check (list string))
    "the only violated property is TLB consistency" [ "tlb-consistency" ] kinds;
  match o.Explore.violations with
  | [] -> Alcotest.fail "buggy monitor: no violation found"
  | v :: _ ->
      Alcotest.(check int) "ddmin shrinks to the 4-event witness" 4
        (List.length v.Explore.v_witness);
      Alcotest.(check (list string))
        "and it is the known one"
        (List.map Chaos.event_to_string (Mc.Universe.stale_tlb_witness layout))
        (List.map Chaos.event_to_string v.Explore.v_witness);
      Alcotest.(check bool) "the shrinker did real work" true
        (v.Explore.v_evals > 0)

(* ------------------------------------------------------------------ *)
(* Determinism and serialization                                       *)

let test_outcome_deterministic () =
  let log () = Explore.to_log (Explore.run (Explore.config ~depth:4 ~flush:false layout)) in
  Alcotest.(check string) "two runs serialize identically" (log ()) (log ())

(* The depth-5 exploration the [bug-hunt] benchmark runs, pinned for
   both monitors: stats, the MD5 of the sorted state keys, and each
   violation's kind, state, shrinker replays and shrunk witness, in
   discovery order.  A faster check must leave all of it unchanged:
   state keys pick the shards and name violating states, and the
   violations, their order and their witnesses are the verdict. *)
let stale_witness =
  [ "hc_create(elrange=0x0+1, mbuf=0x100)"; "hc_add_page(1, 0x0)";
    "fault: tlb-prefetch(pick=0)"; "hc_remove_page(1, 0x0)" ]

let test_bug_hunt_pinned () =
  let check ~flush ~stats ~keys_md5 ~violations =
    let o = Explore.run (Explore.config ~depth:5 ~flush layout) in
    let s = o.Explore.stats in
    let what = Printf.sprintf "%s (flush=%b)" in
    Alcotest.(check (list int)) (what "explored/transitions/deduped/pruned" flush)
      stats
      [ s.Explore.explored; s.Explore.transitions; s.Explore.deduped; s.Explore.pruned ];
    Alcotest.(check string) (what "MD5 of the sorted keys" flush) keys_md5
      (Digest.to_hex (Digest.string (String.concat "\n" o.Explore.keys)));
    Alcotest.(check (list (pair (pair string string) (pair int (list string)))))
      (what "violations" flush) violations
      (List.map
         (fun v ->
           ( (v.Explore.v_kind, v.Explore.v_state),
             (v.Explore.v_evals, List.map Chaos.event_to_string v.Explore.v_witness) ))
         o.Explore.violations)
  in
  check ~flush:true ~stats:[ 999; 2501; 1503; 524 ]
    ~keys_md5:"19bd1ad616150004cf932caacda92f8b" ~violations:[];
  check ~flush:false ~stats:[ 1010; 2508; 1499; 526 ]
    ~keys_md5:"6fdc8d0cd6aa9bcc5380e6d3824a4b3b"
    ~violations:
      (List.map
         (fun (state, evals) -> (("tlb-consistency", state), (evals, stale_witness)))
         [ ("c4587f01573d0768083ddebdf3da819f", 9);
           ("73c17f0ba65794eab589907b3cbddf07", 11);
           ("e56c5b128e22bd489b342e447515a448", 11);
           ("70af296c49c7f5f675a958bf3ded8df4", 11);
           ("4a4259229f22d009639c1148a2b20e96", 11);
           ("109ac200aaf45f8ef73273182b02bd9c", 11);
           ("0189f33ffb440b9fb8db60451365fbaf", 11);
           ("8a13e55ec05632e62bd822f4d879a883", 11);
           ("58116904c918c8ec11ce4b4156a73480", 10);
           ("a2f91f0d22a58337650c1c6ff6352014", 10);
           ("b183c8ada199900c0b415a9c567d1a56", 10) ])

(* ------------------------------------------------------------------ *)
(* Explore.run against the reference explorer                          *)

let tiny3 =
  match
    Geometry.make ~levels:3 ~index_bits:2 ~fb_present:0 ~fb_write:1 ~fb_user:2
      ~fb_huge:3
  with
  | Ok g -> Layout.default g
  | Error msg -> failwith msg

(* The reference visits each state once, and reaches exactly the states
   and the invariant and TLB-consistency violations [Explore.run] does. *)
let test_reference_explorer_agrees () =
  let check ~what ~depth ~flush layout (states, found) =
    let what = Printf.sprintf "%s, depth %d, flush=%b: %s" what depth flush in
    let o = Explore.run (Explore.config ~depth ~flush layout) in
    let digests = List.sort String.compare (List.map State_key.digest states) in
    Alcotest.(check int) (what "no two states share a key") (List.length digests)
      (List.length (List.sort_uniq String.compare digests));
    Alcotest.(check (list string)) (what "same states") o.Explore.keys digests;
    Alcotest.(check (list (pair string string)))
      (what "same invariant and TLB-consistency violations")
      (List.sort compare
         (List.filter
            (fun (kind, _) -> kind = "invariant" || kind = "tlb-consistency")
            (List.map
               (fun v -> (v.Explore.v_kind, v.Explore.v_state))
               o.Explore.violations)))
      (List.sort compare (List.map (fun (kind, st) -> (kind, State_key.digest st)) found))
  in
  List.iter
    (fun flush ->
      check ~what:"tiny" ~depth:4 ~flush layout (reference_explore ~depth:4 ~flush layout);
      check ~what:"tiny3" ~depth:4 ~flush tiny3 (reference_explore ~depth:4 ~flush tiny3);
      check ~what:"tiny" ~depth:5 ~flush layout (tiny_depth5 flush))
    [ true; false ]

let test_log_roundtrip () =
  let o = Explore.run (Explore.config ~depth:4 ~flush:false layout) in
  let p = Explore.parse_log (Explore.to_log o) in
  Alcotest.(check int) "stats survive" o.Explore.stats.Explore.explored
    p.Explore.p_stats.Explore.explored;
  Alcotest.(check (list string)) "keys survive" o.Explore.keys p.Explore.p_keys;
  Alcotest.(check int) "violations survive"
    (List.length o.Explore.violations)
    (List.length p.Explore.p_violations);
  List.iter2
    (fun v pv ->
      Alcotest.(check string) "kind" v.Explore.v_kind pv.Explore.p_kind;
      Alcotest.(check string) "state" v.Explore.v_state pv.Explore.p_state;
      Alcotest.(check (list string))
        "witness"
        (List.map Chaos.event_to_string v.Explore.v_witness)
        pv.Explore.p_witness)
    o.Explore.violations p.Explore.p_violations;
  let r = Explore.rollup p in
  match Explore.min_witness r with
  | Some 4 -> ()
  | Some n -> Alcotest.failf "min witness %d, wanted 4" n
  | None -> Alcotest.fail "no witness in rollup"

let () =
  Alcotest.run "mc"
    [
      ( "state-key",
        [
          Alcotest.test_case "canonicalize idempotent" `Quick
            test_canonicalize_idempotent;
          Alcotest.test_case "equal states hash equal" `Quick
            test_equal_states_hash_equal;
          Alcotest.test_case "zero saved context equals none" `Quick
            test_zero_context_equals_none;
          Alcotest.test_case "step commutes with canonicalize" `Quick
            test_step_commutes_with_canonicalize;
        ] );
      ( "por",
        [
          Alcotest.test_case "commutation table sound" `Slow
            test_commutation_table_sound;
          Alcotest.test_case "preserves states and violations" `Slow
            test_por_preserves_outcome;
          Alcotest.test_case "prunes >= 30% of interleavings" `Quick
            test_por_prunes_interleavings;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "clean seed has no violations" `Slow
            test_clean_no_violations;
          Alcotest.test_case "buggy monitor rediscovered, 4-event witness"
            `Slow test_buggy_rediscovers_stale_tlb;
          Alcotest.test_case "outcome deterministic" `Slow
            test_outcome_deterministic;
          Alcotest.test_case "bug-hunt exploration pinned" `Slow
            test_bug_hunt_pinned;
          Alcotest.test_case "reference explorer agrees" `Slow
            test_reference_explorer_agrees;
          Alcotest.test_case "log roundtrip" `Slow test_log_roundtrip;
        ] );
    ]
