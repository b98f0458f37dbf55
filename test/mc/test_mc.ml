(* Tests for the bounded model checker: canonical state keys
   (idempotence, agreement with [State.equal], commutation with
   [step]), rediscovery of the planted stale-TLB bug with its 4-event
   ddmin witness, determinism and serialization of the outcome, a plain
   reference BFS that must reach the same states, the same invariant
   and TLB-consistency violations and the same transition and dedup
   counts as [Explore.run], and the explorer's monitor memo ([Mc.Memo])
   against the plain functions it stands in for. *)

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
   consistency.  No digest, no shared successor rows: it shares with
   [Explore.run] only the semantics it explores. *)
type reference = {
  states : State.t list;  (** visited, in discovery order *)
  found : (string * State.t) list;
      (** invariant and TLB-consistency violations, as (kind, state) *)
  transitions : int;  (** successful steps from states above the bound *)
  deduped : int;  (** of those, steps into an already-visited state *)
}

let reference_explore ~depth ~flush layout =
  let events = Mc.Universe.events layout in
  let check st =
    List.filter_map
      (fun (kind, verdict) -> if Result.is_error verdict then Some (kind, st) else None)
      [ ("invariant", Invariants.check st.State.mon);
        ("tlb-consistency", Chaos.tlb_consistent st) ]
  in
  let visit (visited, next, found, deduped) st =
    if List.exists (State.equal st) visited then (visited, next, found, deduped + 1)
    else (st :: visited, st :: next, check st @ found, deduped)
  in
  let rec level d transitions (visited, last, found, deduped) =
    if d = depth || last = [] then
      { states = List.rev visited; found; transitions; deduped }
    else
      let successors =
        List.concat_map
          (fun st ->
            List.filter_map (fun ev -> Result.to_option (exec ~flush st ev)) events)
          (List.rev last)
      in
      level (d + 1)
        (transitions + List.length successors)
        (List.fold_left visit (visited, [], found, deduped) successors)
  in
  level 0 0 (visit ([], [], [], 0) (State.boot layout))

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
            (tiny_depth5 flush).states)
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
    Alcotest.(check (list int)) (what "explored/transitions/deduped" flush)
      stats
      [ s.Explore.explored; s.Explore.transitions; s.Explore.deduped ];
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
  check ~flush:true ~stats:[ 999; 2795; 1797 ]
    ~keys_md5:"19bd1ad616150004cf932caacda92f8b" ~violations:[];
  check ~flush:false ~stats:[ 1010; 2804; 1795 ]
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
  let check ~what ~depth ~flush layout { states; found; _ } =
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

(* Every enabled event is stepped once from every state above the
   bound, and each successor is either new or counted as deduplicated:
   the reference's counts are [Explore.run]'s, on the configurations
   above, and every state but boot is discovered by exactly one
   transition. *)
let test_reference_counts_agree () =
  let check ~what ~depth ~flush layout r =
    let what = Printf.sprintf "%s, depth %d, flush=%b: %s" what depth flush in
    let s = (Explore.run (Explore.config ~depth ~flush layout)).Explore.stats in
    Alcotest.(check int) (what "states") (List.length r.states) s.Explore.explored;
    Alcotest.(check int) (what "transitions") r.transitions s.Explore.transitions;
    Alcotest.(check int) (what "deduped") r.deduped s.Explore.deduped;
    Alcotest.(check int) (what "deduped = transitions - (explored - 1)")
      (s.Explore.transitions - (s.Explore.explored - 1))
      s.Explore.deduped
  in
  List.iter
    (fun flush ->
      check ~what:"tiny" ~depth:4 ~flush layout (reference_explore ~depth:4 ~flush layout);
      check ~what:"tiny3" ~depth:4 ~flush tiny3 (reference_explore ~depth:4 ~flush tiny3);
      check ~what:"tiny" ~depth:5 ~flush layout (tiny_depth5 flush))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* The monitor memo against the plain functions                        *)

let observers = [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ]
let verdict = Alcotest.(result bool string)

(* What [Memo.unchanged] must answer: the plain views are equal, or both
   observations fail with the same message. *)
let plain_unchanged p st st' =
  match (Observation.observe st p, Observation.observe st' p) with
  | Ok v, Ok v' -> Observation.view_equal v v'
  | Error e, Error e' -> String.equal e e'
  | Ok _, Error _ | Error _, Ok _ -> false

(* Every state a depth-4 reference BFS reaches, on tiny (both monitors)
   and tiny3: the memo's twin, its invariant result, its steps along
   every universe action, its state/twin and successor-pair verdicts and
   its integrity verdicts equal the plain functions'.  The twin pairs
   are all indistinguishable on the seed monitors, so pairs of distinct
   reachable states are compared too, and the sample must contain both
   verdicts.  Each (monitor, observer) memory half is computed once. *)
let test_memo_agrees () =
  let check_config ~what ~flush layout =
    let what fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s (flush=%b): %s" what flush s) fmt in
    let memo = Mc.Memo.create ~flush ~seed:2024 in
    let seen = Hashtbl.create 1024 in
    let node st =
      let n = Mc.Memo.node memo st in
      Hashtbl.replace seen (Mc.Memo.id n) n;
      n
    in
    let keep r =
      Result.map (fun n -> Hashtbl.replace seen (Mc.Memo.id n) n; n) r
    in
    let step_plain st a = Transition.step ~flush st a in
    let { states; _ } = reference_explore ~depth:4 ~flush layout in
    let actions =
      List.filter_map
        (function Chaos.Act a -> Some a | Chaos.Inject _ -> None)
        (Mc.Universe.events layout)
    in
    List.iteri
      (fun i st ->
        let n = node st in
        Alcotest.check Alcotest.(result unit string) (what "state %d: invariants" i)
          (Invariants.check st.State.mon) (Mc.Memo.invariants n);
        (* steps and integrity *)
        List.iter
          (fun a ->
            let label = what "state %d, %s" i (Transition.action_to_string a) in
            match (step_plain st a, keep (Mc.Memo.step memo n a)) with
            | Error e, Error e' -> Alcotest.(check string) (label ^ ": error") e e'
            | Ok st', Ok n' ->
                Alcotest.(check bool) (label ^ ": step") true
                  (State.equal st' (Mc.Memo.state n'));
                List.iter
                  (fun p ->
                    let plain = plain_unchanged p st st' in
                    (match
                       Observation.unchanged_after p
                         ~before:(st, Observation.observe st p) st'
                     with
                    | Ok same -> Alcotest.(check bool) (label ^ ": unchanged_after") same plain
                    | Error _ -> ());
                    Alcotest.(check bool)
                      (label ^ ": integrity of " ^ Principal.to_string p)
                      plain
                      (Mc.Memo.unchanged memo p ~before:n n'))
                  observers
            | Ok _, Error e | Error e, Ok _ ->
                Alcotest.failf "%s: enabledness differs: %s" label e)
          actions;
        (* twins, state/twin and successor-pair verdicts *)
        List.iter
          (fun p ->
            let label = what "state %d, %s" i (Principal.to_string p) in
            let twin_plain = Check.Gen.perturb_secrets ~seed:2024 ~observer:p st in
            let twin = Mc.Memo.twin memo ~observer:p n in
            Hashtbl.replace seen (Mc.Memo.id twin) twin;
            Alcotest.(check bool) (label ^ ": twin") true
              (State.equal twin_plain (Mc.Memo.state twin));
            let pair = Observation.indistinguishable p st twin_plain in
            Alcotest.check verdict (label ^ ": state/twin") pair
              (Mc.Memo.indistinguishable memo p n twin);
            List.iter
              (fun a ->
                match
                  ( step_plain st a,
                    step_plain twin_plain a,
                    keep (Mc.Memo.step memo n a),
                    keep (Mc.Memo.step memo twin a) )
                with
                | Ok u, Ok v, Ok u', Ok v' ->
                    let plain =
                      if pair = Ok true then
                        Observation.indistinguishable_after p
                          ~before:(st, twin_plain) u v
                      else Observation.indistinguishable p u v
                    in
                    Alcotest.check verdict
                      (label ^ ": after " ^ Transition.action_to_string a)
                      plain
                      (Mc.Memo.indistinguishable memo p u' v')
                | _ -> ())
              actions)
          observers)
      states;
    (* pairs of distinct reachable states: a memo answering "same"
       regardless fails here *)
    let arr = Array.of_list states in
    let k = Array.length arr in
    let answers = Hashtbl.create 4 in
    for i = 0 to k - 1 do
      let j = (i * 7 + 3) mod k in
      if i <> j then
        List.iter
          (fun p ->
            let a = node arr.(i) and b = node arr.(j) in
            let label = what "states %d/%d, %s" i j (Principal.to_string p) in
            let plain = Observation.indistinguishable p arr.(i) arr.(j) in
            Hashtbl.replace answers plain ();
            Alcotest.check verdict (label ^ ": indistinguishable") plain
              (Mc.Memo.indistinguishable memo p a b);
            Alcotest.(check bool) (label ^ ": unchanged")
              (plain_unchanged p arr.(i) arr.(j))
              (Mc.Memo.unchanged memo p ~before:a b);
            Alcotest.(check bool) (label ^ ": same id iff equal monitors")
              (Absdata.equal arr.(i).State.mon arr.(j).State.mon)
              (Mc.Memo.id a = Mc.Memo.id b))
          observers
    done;
    Alcotest.(check bool) (what "distinct pairs meet both verdicts") true
      (Hashtbl.mem answers (Ok true) && Hashtbl.mem answers (Ok false));
    (* every memory half it needed, computed once *)
    Hashtbl.iter
      (fun _ n ->
        List.iter (fun p -> ignore (Mc.Memo.indistinguishable memo p n n)) observers)
      seen;
    Alcotest.(check int) (what "every monitor interned once")
      (Hashtbl.length seen) (Mc.Memo.monitors memo);
    Alcotest.(check int) (what "each memory view computed once")
      (3 * Hashtbl.length seen) (Mc.Memo.views_computed memo)
  in
  check_config ~what:"tiny" ~flush:true layout;
  check_config ~what:"tiny" ~flush:false layout;
  check_config ~what:"tiny3" ~flush:true tiny3;
  (* Corrupted monitors, which no reachable state shows: the Fig. 5
     attacks fail invariants, and flipping a flag bit of a page-table
     entry changes only a mapping's flags or makes an observation fail.
     Every pair within a group is compared. *)
  let memo = Mc.Memo.create ~flush:true ~seed:2024 in
  let attacks =
    List.map
      (fun (sc : Attacks.scenario) ->
        match sc.Attacks.build () with
        | Ok mon -> (sc.Attacks.name, { (State.boot layout) with State.mon })
        | Error msg -> Alcotest.failf "%s: %s" sc.Attacks.name msg)
      Attacks.all
  in
  let flips (label, st) =
    (label, st)
    :: List.concat_map
         (fun table ->
           List.concat_map
             (fun index ->
               List.filter_map
                 (fun bit ->
                   Result.to_option
                     (Result.map
                        (fun st' ->
                          (Printf.sprintf "%s, table %d entry %d bit %d" label table
                             index bit, st'))
                        (Fault.Inject.apply
                           (Fault.Plan.Flip_pt_bit { table; index; bit }) st)))
                 [ 1; 2; 3 ])
             [ 0; 1; 2; 3 ])
         [ 0; 1; 2; 3; 4; 5 ]
  in
  let reached = Lazy.force reachable in
  let groups =
    [ attacks; flips (List.hd reached); flips (List.nth reached 5) ]
  in
  let distinct_errors = ref 0 in
  List.iter
    (fun group ->
      List.iter
        (fun (name, st) ->
          let n = Mc.Memo.node memo st in
          Alcotest.check Alcotest.(result unit string) (name ^ ": invariants")
            (Invariants.check st.State.mon) (Mc.Memo.invariants n);
          List.iter
            (fun (name', st') ->
              let n' = Mc.Memo.node memo st' in
              List.iter
                (fun p ->
                  let label =
                    Printf.sprintf "%s / %s, %s" name name' (Principal.to_string p)
                  in
                  (match (Observation.observe st p, Observation.observe st' p) with
                  | Error e, Error e' when not (String.equal e e') -> incr distinct_errors
                  | _ -> ());
                  Alcotest.check verdict (label ^ ": indistinguishable")
                    (Observation.indistinguishable p st st')
                    (Mc.Memo.indistinguishable memo p n n');
                  Alcotest.(check bool) (label ^ ": unchanged")
                    (plain_unchanged p st st')
                    (Mc.Memo.unchanged memo p ~before:n n'))
                observers)
            group)
        group)
    groups;
  Alcotest.(check bool) "two observations fail with different messages" true
    (!distinct_errors > 0);
  (* interning keys by content: physical memory rebuilt in reverse
     address order is a map of another shape, with the same id *)
  List.iter
    (fun (label, st) ->
      let mon = st.State.mon in
      let phys = mon.Absdata.phys in
      let rebuilt =
        List.fold_left
          (fun m (a, v) ->
            match Phys_mem.write64 m a v with
            | Ok m -> m
            | Error msg -> Alcotest.failf "%s: %s" label msg)
          (Phys_mem.create ~limit:(Phys_mem.limit phys))
          (List.rev (Phys_mem.nonzero_words phys))
      in
      let copy = { st with State.mon = { mon with Absdata.phys = rebuilt } } in
      Alcotest.(check int) (label ^ ": same hash, memory rebuilt")
        (Absdata.hash mon) (Absdata.hash copy.State.mon);
      Alcotest.(check int) (label ^ ": same id, memory rebuilt")
        (Mc.Memo.id (Mc.Memo.node memo st)) (Mc.Memo.id (Mc.Memo.node memo copy)))
    reached

(* The explorer's keys: [Memo.digest], which serializes each interned
   monitor once, equals [State_key.digest] on every state a depth-4
   reference BFS reaches and on each of its successors, and on a state
   whose physical memory was rebuilt in another order (same monitor id,
   another object). *)
let test_memo_digest_agrees () =
  let check_config ~what ~flush layout =
    let memo = Mc.Memo.create ~flush ~seed:2024 in
    let agree label n st =
      Alcotest.(check string) (Printf.sprintf "%s (flush=%b): %s" what flush label)
        (State_key.digest st) (Mc.Memo.digest n)
    in
    let { states; _ } = reference_explore ~depth:4 ~flush layout in
    List.iteri
      (fun i st ->
        let n = Mc.Memo.node memo st in
        agree (Printf.sprintf "state %d" i) n st;
        List.iter
          (function
            | Chaos.Inject _ -> ()
            | Chaos.Act a -> (
                match (Transition.step ~flush st a, Mc.Memo.step memo n a) with
                | Ok st', Ok n' ->
                    agree
                      (Printf.sprintf "state %d, %s" i (Transition.action_to_string a))
                      n' st'
                | _ -> ()))
          (Mc.Universe.events layout))
      states;
    List.iteri
      (fun i st ->
        let phys = st.State.mon.Absdata.phys in
        let rebuilt =
          List.fold_left
            (fun m (a, v) ->
              match Phys_mem.write64 m a v with Ok m -> m | Error msg -> Alcotest.fail msg)
            (Phys_mem.create ~limit:(Phys_mem.limit phys))
            (List.rev (Phys_mem.nonzero_words phys))
        in
        let copy = { st with State.mon = { st.State.mon with Absdata.phys = rebuilt } } in
        agree (Printf.sprintf "state %d, memory rebuilt" i) (Mc.Memo.node memo copy) copy)
      states
  in
  check_config ~what:"tiny" ~flush:true layout;
  check_config ~what:"tiny" ~flush:false layout;
  check_config ~what:"tiny3" ~flush:true tiny3

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
          Alcotest.test_case "reference explorer counts agree" `Slow
            test_reference_counts_agree;
          Alcotest.test_case "log roundtrip" `Slow test_log_roundtrip;
          Alcotest.test_case "monitor memo agrees with Observation" `Slow
            test_memo_agrees;
          Alcotest.test_case "memo digest agrees with State_key" `Slow
            test_memo_digest_agrees;
        ] );
    ]
