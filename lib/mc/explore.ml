open Security
module Chaos = Fault.Chaos
module IntSet = Set.Make (Int)

type config = {
  layout : Hyperenclave.Layout.t;
  universe : Chaos.event list;
  depth : int;
  flush : bool;
  por : bool;
  checks : bool;
  ni : bool;
  observers : Principal.t list;
  ni_seed : int;
}

let config ?(depth = 4) ?(flush = true) ?(por = true) ?(checks = true)
    ?(ni = true) ?(observers = [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2 ])
    ?(ni_seed = 2024) layout =
  { layout; universe = Universe.events layout; depth; flush; por; checks;
    ni; observers; ni_seed }

type violation = {
  v_kind : string;
  v_detail : string;
  v_state : string;
  v_trace : Chaos.event list;
  v_witness : Chaos.event list;
  v_evals : int;
}

type stats = { explored : int; transitions : int; deduped : int; pruned : int }

(* A queued state, with its discovery trace, depth and sleep set. *)
type item = {
  st : State.t;
  key : string;
  trace_rev : Chaos.event list;
  idepth : int;
  sleep : IntSet.t;
}

type outcome = {
  stats : stats;
  keys : string list;
  violations : violation list;
}

let exec ~flush st = function
  | Chaos.Act a -> Transition.step ~flush st a
  | Chaos.Inject f -> Fault.Inject.apply f st

(* Enabledness without execution: the total enumerator for actions, an
   applicability probe for fault plans. *)
let enabled_at st = function
  | Chaos.Act a -> Result.is_ok (Transition.precondition st a)
  | Chaos.Inject f -> Result.is_ok (Fault.Inject.apply f st)

(* Is [p] exempt from the integrity lemma across [ev] from [before]:
   the step is its own, or configures its view? *)
let integrity_exempt ~before p = function
  | Chaos.Act a ->
      Principal.equal p before.State.active || Transition.configures before p a
  | Chaos.Inject _ -> false

(* Did [p]'s view change across [before --> after], where [obs] is
   [Observation.observe before p]?  Views compare as their digests
   would, so two equal observation errors count as unchanged. *)
let view_changed p ~before:(before, obs) after =
  match Observation.unchanged_after p ~before:(before, obs) after with
  | Ok same -> not same
  | Error _ ->
      State_key.view_digest obs
      <> State_key.view_digest (Observation.observe after p)

(* Does [after] exhibit a violation of [kind] for the transition
   [before --ev--> after]?  Used both during exploration and as the
   ddmin replay predicate, so a shrunk witness provably still violates
   the same property. *)
let edge_violates cfg ~kind ~before ~after ev =
  match kind with
  | "invariant" -> Result.is_error (Invariants.check after.State.mon)
  | "tlb-consistency" -> Result.is_error (Chaos.tlb_consistent after)
  | "transactionality" | "status-code" -> (
      match ev with
      | Chaos.Inject _ -> false
      | Chaos.Act a -> (
          match Chaos.transactional ~before ~after a with
          | Ok () -> false
          | Error (check, _) -> String.equal check kind))
  | "integrity" ->
      List.exists
        (fun p ->
          (not (integrity_exempt ~before p ev))
          && view_changed p ~before:(before, Observation.observe before p) after)
        cfg.observers
  | "ni-pair" | "ni-consistency" ->
      List.exists
        (fun p ->
          let twin =
            Check.Gen.perturb_secrets ~seed:cfg.ni_seed ~observer:p after
          in
          match Observation.indistinguishable p after twin with
          | Error _ | Ok false -> String.equal kind "ni-pair"
          | Ok true ->
              String.equal kind "ni-consistency"
              && List.exists
                   (function
                     | Chaos.Inject _ -> false
                     | Chaos.Act a -> (
                         match
                           ( Transition.step ~flush:cfg.flush after a,
                             Transition.step ~flush:cfg.flush twin a )
                         with
                         | Ok u, Ok v -> (
                             match
                               Observation.indistinguishable_after p
                                 ~before:(after, twin) u v
                             with
                             | Ok true -> false
                             | Ok false | Error _ -> true)
                         | Error _, Error _ -> false
                         | Ok _, Error _ | Error _, Ok _ -> true))
                   cfg.universe)
        cfg.observers
  | _ -> false

(* Replay [events] from boot, skipping disabled events (the
   {!Chaos.replay} convention, which ddmin relies on: deleting a chunk
   may disable a later event without invalidating the trace). *)
let trace_violates cfg ~kind events =
  let rec go st = function
    | [] -> false
    | ev :: rest -> (
        match exec ~flush:cfg.flush st ev with
        | Error _ -> go st rest
        | Ok st' ->
            edge_violates cfg ~kind ~before:st ~after:st' ev || go st' rest)
  in
  go (State.boot cfg.layout) events

(* Per-visited-state bookkeeping.  [expl] is the set of transition
   indices already executed from this state (the explored-set
   refinement).  [cover] is the intersection of the sleep sets of
   every visit so far: a transition is durably blocked only when every
   visit slept it, so a revisit whose sleep set misses part of [cover]
   must be re-expanded.  [vdepth] is the minimal discovery depth —
   expansion always uses it, so depth-bounded exploration is exact. *)
type entry = {
  mutable expl : IntSet.t;
  mutable vdepth : int;
  mutable cover : IntSet.t;
}

type ctx = {
  cfg : config;
  uni : Chaos.event array;
  commute : bool array array;
  visited : (string, entry) Hashtbl.t;
  queue : item Queue.t;
  mutable s_explored : int;
  mutable s_transitions : int;
  mutable s_deduped : int;
  mutable s_pruned : int;
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
        ~check:(fun evs -> trace_violates ctx.cfg ~kind evs)
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
let successor_row cfg uni st =
  Array.map
    (function
      | Chaos.Inject _ -> None
      | Chaos.Act a ->
          Some
            ( a,
              Result.is_ok (Transition.precondition st a),
              lazy (Transition.step ~flush:cfg.flush st a) ))
    uni

(* Checks on a newly discovered state. *)
let check_state ctx ~key ~trace_rev st =
  let cfg = ctx.cfg in
  if cfg.checks then begin
    (match Invariants.check st.State.mon with
    | Ok () -> ()
    | Error r -> record ctx ~kind:"invariant" ~detail:r ~key ~trace_rev);
    (match Chaos.tlb_consistent st with
    | Ok () -> ()
    | Error r -> record ctx ~kind:"tlb-consistency" ~detail:r ~key ~trace_rev);
    if cfg.ni then begin
      let row = successor_row cfg ctx.uni st in
      List.iter
        (fun p ->
          let twin = Check.Gen.perturb_secrets ~seed:cfg.ni_seed ~observer:p st in
          match Observation.indistinguishable p st twin with
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
                        || Result.is_ok (Transition.precondition twin a)
                      then
                        match
                          ( Lazy.force succ,
                            Transition.step ~flush:cfg.flush twin a )
                        with
                        | Error _, Error _ -> ()
                        | Ok u, Ok v -> (
                            match
                              Observation.indistinguishable_after p
                                ~before:(st, twin) u v
                            with
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
        cfg.observers
    end
  end

(* Checks on an executed transition.  [views] pairs each observer
   with its observation of [before], computed on first use. *)
let check_edge ctx ~views ~akey ~atrace_rev ~before ~after ev =
  let cfg = ctx.cfg in
  if cfg.checks then begin
    (match ev with
    | Chaos.Inject _ -> ()
    | Chaos.Act a -> (
        match Chaos.transactional ~before ~after a with
        | Ok () -> ()
        | Error (check, reason) ->
            record ctx ~kind:check ~detail:reason ~key:akey ~trace_rev:atrace_rev));
    if cfg.ni then
      List.iter
        (fun (p, obs) ->
          if
            (not (integrity_exempt ~before p ev))
            && view_changed p ~before:(before, Lazy.force obs) after
          then
            record ctx ~kind:"integrity" ~key:akey ~trace_rev:atrace_rev
              ~detail:
                (Printf.sprintf "%s's view changed across %s"
                   (Principal.to_string p) (Chaos.event_to_string ev)))
        views
  end

let run cfg =
  let uni = Array.of_list cfg.universe in
  let n = Array.length uni in
  let commute =
    Array.init n (fun i -> Array.init n (fun j -> Footprint.commutes uni.(i) uni.(j)))
  in
  let ctx =
    { cfg; uni; commute; visited = Hashtbl.create 4096; queue = Queue.create ();
      s_explored = 0; s_transitions = 0; s_deduped = 0; s_pruned = 0;
      violations = []; vseen = Hashtbl.create 16 }
  in
  let discover it =
    Hashtbl.add ctx.visited it.key
      { expl = IntSet.empty; vdepth = it.idepth; cover = it.sleep };
    ctx.s_explored <- ctx.s_explored + 1;
    check_state ctx ~key:it.key ~trace_rev:it.trace_rev it.st;
    if it.idepth < cfg.depth then Queue.push it ctx.queue
  in
  let boot = State.boot cfg.layout in
  discover
    { st = boot; key = State_key.digest boot; trace_rev = []; idepth = 0;
      sleep = IntSet.empty };
  while not (Queue.is_empty ctx.queue) do
    Mirverif.Cancel.poll ();
    let it = Queue.pop ctx.queue in
    let entry = Hashtbl.find ctx.visited it.key in
    (* expand with the first-visit (minimal, by BFS order) depth *)
    let d = entry.vdepth in
    if d < cfg.depth then begin
      let views =
        List.map (fun p -> (p, lazy (Observation.observe it.st p))) cfg.observers
      in
      for i = 0 to n - 1 do
        if (not (IntSet.mem i entry.expl)) && enabled_at it.st uni.(i) then
          if cfg.por && IntSet.mem i it.sleep then
            ctx.s_pruned <- ctx.s_pruned + 1
          else begin
            (* sleep set for the successor: everything slept here or
               already explored from here, kept only if it commutes
               with the transition we take *)
            let sleep' =
              if cfg.por then
                IntSet.filter
                  (fun j -> ctx.commute.(j).(i))
                  (IntSet.union it.sleep entry.expl)
              else IntSet.empty
            in
            match exec ~flush:cfg.flush it.st uni.(i) with
            | Error msg ->
                (* enabled_at said yes, step said no: the enumerator
                   and the semantics disagree *)
                entry.expl <- IntSet.add i entry.expl;
                record ctx ~kind:"precondition" ~key:it.key
                  ~trace_rev:it.trace_rev
                  ~detail:
                    (Printf.sprintf "%s enabled but step failed: %s"
                       (Chaos.event_to_string uni.(i)) msg)
            | Ok st' -> (
                entry.expl <- IntSet.add i entry.expl;
                ctx.s_transitions <- ctx.s_transitions + 1;
                let key' = State_key.digest st' in
                let trace_rev' = uni.(i) :: it.trace_rev in
                check_edge ctx ~views ~akey:key' ~atrace_rev:trace_rev'
                  ~before:it.st ~after:st' uni.(i);
                let it' =
                  { st = st'; key = key'; trace_rev = trace_rev';
                    idepth = d + 1; sleep = sleep' }
                in
                match Hashtbl.find_opt ctx.visited key' with
                | None -> discover it'
                | Some entry' ->
                    ctx.s_deduped <- ctx.s_deduped + 1;
                    (* A revisit must be re-queued when it can unblock
                       something: its sleep set misses part of the
                       stored cover (so a durably-slept transition wakes
                       up), or it reaches the state strictly shallower
                       (so there is more depth budget).  The explored
                       set keeps this terminating — a re-expansion only
                       executes not-yet-explored transitions. *)
                    let shallower = d + 1 < entry'.vdepth in
                    if shallower then entry'.vdepth <- d + 1;
                    let wakes = not (IntSet.subset entry'.cover sleep') in
                    entry'.cover <- IntSet.inter entry'.cover sleep';
                    if (cfg.por && wakes) || shallower then
                      Queue.push { it' with sleep = entry'.cover } ctx.queue)
          end
      done
    end
  done;
  {
    stats =
      { explored = ctx.s_explored; transitions = ctx.s_transitions;
        deduped = ctx.s_deduped; pruned = ctx.s_pruned };
    keys =
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) ctx.visited []);
    violations = List.rev ctx.violations;
  }

let interleavings cfg =
  let uni = Array.of_list cfg.universe in
  let n = Array.length uni in
  let commute =
    Array.init n (fun i ->
        Array.init n (fun j -> Footprint.commutes uni.(i) uni.(j)))
  in
  let count = ref 0 in
  let rec go st depth sleep =
    if depth < cfg.depth then begin
      Mirverif.Cancel.poll ();
      let explored = ref IntSet.empty in
      for i = 0 to n - 1 do
        if enabled_at st uni.(i) && not (cfg.por && IntSet.mem i sleep) then
          match exec ~flush:cfg.flush st uni.(i) with
          | Error _ -> ()
          | Ok st' ->
              incr count;
              let sleep' =
                if cfg.por then
                  IntSet.filter
                    (fun j -> commute.(j).(i))
                    (IntSet.union sleep !explored)
                else IntSet.empty
              in
              explored := IntSet.add i !explored;
              go st' (depth + 1) sleep'
      done
    end
  in
  go (State.boot cfg.layout) 0 IntSet.empty;
  !count

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
    (Printf.sprintf "s\t%d\t%d\t%d\t%d\n" o.stats.explored o.stats.transitions
       o.stats.deduped o.stats.pruned);
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
  let stats = ref { explored = 0; transitions = 0; deduped = 0; pruned = 0 } in
  let keys = ref [] and viols = ref [] in
  String.split_on_char '\n' log
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ "s"; e; t; d; p ] ->
             stats :=
               { explored = int_of_string e; transitions = int_of_string t;
                 deduped = int_of_string d; pruned = int_of_string p }
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
    r_pruned = p.p_stats.pruned;
    r_violations = p.p_violations;
  }

let min_witness r =
  List.fold_left
    (fun acc v ->
      let n = List.length v.p_witness in
      match acc with Some m when m <= n -> acc | _ -> Some n)
    None r.r_violations
