open Security
module Chaos = Fault.Chaos

type config = {
  layout : Hyperenclave.Layout.t;
  universe : Chaos.event list;
  depth : int;
  flush : bool;
}

let config ?(depth = 4) ?(flush = true) layout =
  { layout; universe = Universe.events layout; depth; flush }

(* The principals whose views the noninterference checks compare, and
   the seed of each state's perturbed-secrets twin. *)
let observers = [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ]
let ni_seed = 2024

type violation = {
  v_kind : string;
  v_detail : string;
  v_state : string;
  v_trace : Chaos.event list;
  v_witness : Chaos.event list;
  v_evals : int;
}

type stats = { explored : int; transitions : int; deduped : int }

(* A queued state, with its discovery trace and depth. *)
type item = {
  node : Memo.node;
  key : string;
  trace_rev : Chaos.event list;
  idepth : int;
}

type outcome = {
  stats : stats;
  keys : string list;
  violations : violation list;
}

let exec memo n = function
  | Chaos.Act a -> Memo.step memo n a
  | Chaos.Inject f ->
      Result.map (Memo.derive memo ~parent:n) (Fault.Inject.apply f (Memo.state n))

(* Enabledness without execution: the total enumerator for actions, an
   applicability probe for fault plans. *)
let enabled_at n = function
  | Chaos.Act a -> Result.is_ok (Transition.precondition (Memo.state n) a)
  | Chaos.Inject f -> Result.is_ok (Fault.Inject.apply f (Memo.state n))

(* Is [p] exempt from the integrity lemma across [ev] from [before]:
   the step is its own, or configures its view? *)
let integrity_exempt ~before p = function
  | Chaos.Act a ->
      Principal.equal p before.State.active || Transition.configures before p a
  | Chaos.Inject _ -> false

(* Does [after] exhibit a violation of [kind] for the transition
   [before --ev--> after]?  Used both during exploration and as the
   ddmin replay predicate, with the same memoized comparisons, so a
   shrunk witness provably still violates the same property. *)
let edge_violates cfg memo ~kind ~before ~after ev =
  let st = Memo.state after in
  match kind with
  | "invariant" -> Result.is_error (Memo.invariants after)
  | "tlb-consistency" -> Result.is_error (Chaos.tlb_consistent st)
  | "transactionality" | "status-code" -> (
      match ev with
      | Chaos.Inject _ -> false
      | Chaos.Act a -> (
          match Chaos.transactional ~before:(Memo.state before) ~after:st a with
          | Ok () -> false
          | Error (check, _) -> String.equal check kind))
  | "integrity" ->
      List.exists
        (fun p ->
          (not (integrity_exempt ~before:(Memo.state before) p ev))
          && not (Memo.unchanged memo p ~before after))
        observers
  | "ni-pair" | "ni-consistency" ->
      List.exists
        (fun p ->
          let twin = Memo.twin memo ~observer:p after in
          match Memo.indistinguishable memo p after twin with
          | Error _ | Ok false -> String.equal kind "ni-pair"
          | Ok true ->
              String.equal kind "ni-consistency"
              && List.exists
                   (function
                     | Chaos.Inject _ -> false
                     | Chaos.Act a -> (
                         match (Memo.step memo after a, Memo.step memo twin a) with
                         | Ok u, Ok v -> (
                             match Memo.indistinguishable memo p u v with
                             | Ok true -> false
                             | Ok false | Error _ -> true)
                         | Error _, Error _ -> false
                         | Ok _, Error _ | Error _, Ok _ -> true))
                   cfg.universe)
        observers
  | _ -> false

(* Replay [events] from [boot], skipping disabled events (the
   {!Chaos.replay} convention, which ddmin relies on: deleting a chunk
   may disable a later event without invalidating the trace). *)
let trace_violates cfg memo ~boot ~kind events =
  let rec go n = function
    | [] -> false
    | ev :: rest -> (
        match exec memo n ev with
        | Error _ -> go n rest
        | Ok n' -> edge_violates cfg memo ~kind ~before:n ~after:n' ev || go n' rest)
  in
  go boot events

type ctx = {
  cfg : config;
  memo : Memo.t;
  boot : Memo.node;
  uni : Chaos.event array;
  visited : (string, unit) Hashtbl.t;
  queue : item Queue.t;
  mutable s_explored : int;
  mutable s_transitions : int;
  mutable s_deduped : int;
  mutable violations : violation list; (* reverse discovery order *)
  vseen : (string, unit) Hashtbl.t;
}

let record ctx ~kind ~detail ~key ~trace_rev =
  let vk = kind ^ "|" ^ key in
  if not (Hashtbl.mem ctx.vseen vk) then begin
    Hashtbl.add ctx.vseen vk ();
    let trace = List.rev trace_rev in
    let witness, evals =
      Check.Shrink.evaluations
        ~check:(fun evs -> trace_violates ctx.cfg ctx.memo ~boot:ctx.boot ~kind evs)
        trace
    in
    ctx.violations <-
      { v_kind = kind; v_detail = detail; v_state = key; v_trace = trace;
        v_witness = witness; v_evals = evals }
      :: ctx.violations
  end

(* The real state's side of the ni-consistency check, computed once
   per state and shared by every observer: for each action event, its
   precondition and, on first use, its step. *)
let successor_row memo uni n =
  Array.map
    (function
      | Chaos.Inject _ -> None
      | Chaos.Act a ->
          Some
            ( a,
              Result.is_ok (Transition.precondition (Memo.state n) a),
              lazy (Memo.step memo n a) ))
    uni

(* Checks on a newly discovered state. *)
let check_state ctx ~key ~trace_rev n =
  let memo = ctx.memo in
  (match Memo.invariants n with
  | Ok () -> ()
  | Error r -> record ctx ~kind:"invariant" ~detail:r ~key ~trace_rev);
  (match Chaos.tlb_consistent (Memo.state n) with
  | Ok () -> ()
  | Error r -> record ctx ~kind:"tlb-consistency" ~detail:r ~key ~trace_rev);
  let row = successor_row memo ctx.uni n in
  List.iter
    (fun p ->
      let twin = Memo.twin memo ~observer:p n in
      match Memo.indistinguishable memo p n twin with
      | Error msg ->
          record ctx ~kind:"ni-pair" ~key ~trace_rev
            ~detail:
              (Printf.sprintf "observing %s failed: %s"
                 (Principal.to_string p) msg)
      | Ok false ->
          record ctx ~kind:"ni-pair" ~key ~trace_rev
            ~detail:
              (Printf.sprintf "%s distinguishes its own perturbed twin"
                 (Principal.to_string p))
      | Ok true ->
          Array.iter
            (function
              | None -> ()
              | Some (a, enabled, succ) -> (
                  (* skip actions disabled in both runs cheaply *)
                  if
                    enabled
                    || Result.is_ok (Transition.precondition (Memo.state twin) a)
                  then
                    match (Lazy.force succ, Memo.step memo twin a) with
                    | Error _, Error _ -> ()
                    | Ok u, Ok v -> (
                        match Memo.indistinguishable memo p u v with
                        | Ok true -> ()
                        | Ok false ->
                            record ctx ~kind:"ni-consistency" ~key
                              ~trace_rev
                              ~detail:
                                (Printf.sprintf
                                   "%s distinguishes the runs after %s"
                                   (Principal.to_string p)
                                   (Transition.action_to_string a))
                        | Error msg ->
                            record ctx ~kind:"ni-consistency" ~key
                              ~trace_rev
                              ~detail:
                                (Printf.sprintf
                                   "observing %s after %s failed: %s"
                                   (Principal.to_string p)
                                   (Transition.action_to_string a)
                                   msg))
                    | Ok _, Error e | Error e, Ok _ ->
                        record ctx ~kind:"ni-consistency" ~key ~trace_rev
                          ~detail:
                            (Printf.sprintf
                               "enabledness of %s diverges between \
                                %s-indistinguishable states: %s"
                               (Transition.action_to_string a)
                               (Principal.to_string p) e)))
            row)
    observers

(* Checks on an executed transition. *)
let check_edge ctx ~akey ~atrace_rev ~before ~after ev =
  let st = Memo.state before in
  (match ev with
  | Chaos.Inject _ -> ()
  | Chaos.Act a -> (
      match Chaos.transactional ~before:st ~after:(Memo.state after) a with
      | Ok () -> ()
      | Error (check, reason) ->
          record ctx ~kind:check ~detail:reason ~key:akey ~trace_rev:atrace_rev));
  List.iter
    (fun p ->
      if
        (not (integrity_exempt ~before:st p ev))
        && not (Memo.unchanged ctx.memo p ~before after)
      then
        record ctx ~kind:"integrity" ~key:akey ~trace_rev:atrace_rev
          ~detail:
            (Printf.sprintf "%s's view changed across %s"
               (Principal.to_string p) (Chaos.event_to_string ev)))
    observers

let run cfg =
  let memo = Memo.create ~flush:cfg.flush ~seed:ni_seed in
  let boot = Memo.node memo (State.boot cfg.layout) in
  let ctx =
    { cfg; memo; boot; uni = Array.of_list cfg.universe;
      visited = Hashtbl.create 4096; queue = Queue.create ();
      s_explored = 0; s_transitions = 0; s_deduped = 0;
      violations = []; vseen = Hashtbl.create 16 }
  in
  (* BFS reaches states in order of depth, so a state is discovered,
     checked and queued once, at its minimal depth. *)
  let discover it =
    Hashtbl.add ctx.visited it.key ();
    ctx.s_explored <- ctx.s_explored + 1;
    check_state ctx ~key:it.key ~trace_rev:it.trace_rev it.node;
    if it.idepth < cfg.depth then Queue.push it ctx.queue
  in
  discover { node = boot; key = Memo.digest boot; trace_rev = []; idepth = 0 };
  while not (Queue.is_empty ctx.queue) do
    Mirverif.Cancel.poll ();
    let it = Queue.pop ctx.queue in
    Array.iter
      (fun ev ->
        if enabled_at it.node ev then
          match exec memo it.node ev with
          | Error msg ->
              (* enabled_at said yes, step said no: the enumerator and
                 the semantics disagree *)
              record ctx ~kind:"precondition" ~key:it.key ~trace_rev:it.trace_rev
                ~detail:
                  (Printf.sprintf "%s enabled but step failed: %s"
                     (Chaos.event_to_string ev) msg)
          | Ok n' ->
              ctx.s_transitions <- ctx.s_transitions + 1;
              let key' = Memo.digest n' in
              let trace_rev' = ev :: it.trace_rev in
              check_edge ctx ~akey:key' ~atrace_rev:trace_rev' ~before:it.node
                ~after:n' ev;
              if Hashtbl.mem ctx.visited key' then
                ctx.s_deduped <- ctx.s_deduped + 1
              else
                discover
                  { node = n'; key = key'; trace_rev = trace_rev';
                    idepth = it.idepth + 1 })
      ctx.uni
  done;
  {
    stats =
      { explored = ctx.s_explored; transitions = ctx.s_transitions;
        deduped = ctx.s_deduped };
    keys =
      List.sort String.compare
        (Hashtbl.fold (fun k () acc -> k :: acc) ctx.visited []);
    violations = List.rev ctx.violations;
  }

(* ---- serialization through obligation logs ---- *)

type parsed_violation = {
  p_kind : string;
  p_detail : string;
  p_state : string;
  p_evals : int;
  p_witness : string list;
}

type parsed = {
  p_stats : stats;
  p_keys : string list;
  p_violations : parsed_violation list;
}

type rollup = {
  r_states : int;
  r_transitions : int;
  r_deduped : int;
  r_pruned : int;
  r_violations : parsed_violation list;
}

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let to_log (o : outcome) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "s\t%d\t%d\t%d\n" o.stats.explored o.stats.transitions
       o.stats.deduped);
  List.iter (fun k -> Buffer.add_string buf (Printf.sprintf "k\t%s\n" k)) o.keys;
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "v\t%s\t%s\t%d\t%s\n" v.v_kind v.v_state v.v_evals
           (sanitize v.v_detail));
      List.iter
        (fun ev ->
          Buffer.add_string buf
            (Printf.sprintf "w\t%s\n" (sanitize (Chaos.event_to_string ev))))
        v.v_witness)
    o.violations;
  Buffer.contents buf

let parse_log log =
  let stats = ref { explored = 0; transitions = 0; deduped = 0 } in
  let keys = ref [] and viols = ref [] in
  String.split_on_char '\n' log
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ "s"; e; t; d ] ->
             stats :=
               { explored = int_of_string e; transitions = int_of_string t;
                 deduped = int_of_string d }
         | [ "k"; k ] -> keys := k :: !keys
         | "v" :: kind :: state :: evals :: rest ->
             viols :=
               { p_kind = kind; p_state = state;
                 p_evals = (try int_of_string evals with _ -> 0);
                 p_detail = String.concat "\t" rest; p_witness = [] }
               :: !viols
         | [ "w"; ev ] -> (
             match !viols with
             | [] -> ()
             | v :: rest ->
                 viols := { v with p_witness = v.p_witness @ [ ev ] } :: rest)
         | _ -> ());
  { p_stats = !stats; p_keys = List.rev !keys; p_violations = List.rev !viols }

let rollup p =
  {
    r_states = p.p_stats.explored;
    r_transitions = p.p_stats.transitions;
    r_deduped = p.p_stats.deduped;
    r_pruned = 0;
    r_violations = p.p_violations;
  }

let min_witness r =
  List.fold_left
    (fun acc v ->
      let n = List.length v.p_witness in
      match acc with Some m when m <= n -> acc | _ -> Some n)
    None r.r_violations
