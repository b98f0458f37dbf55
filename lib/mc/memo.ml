open Hyperenclave
open Security

(* One distinct monitor: its canonical object, its id, and the results
   computed on it so far.  The association lists stay short: one entry
   per observer, or per hypercall of the universe. *)
type entry = {
  mon : Absdata.t;
  eid : int;
  mutable inv : (unit, string) result option;
  mutable key : string option;  (** [State_key.mon_string mon] *)
  mutable views : (Principal.t * (int, string) result) list;
  mutable twins : (Principal.t * (entry * Check.Rng.t)) list;
  mutable effects : (Transition.action * (int Hypercall.outcome * entry)) list;
}

type t = {
  flush : bool;
  seed : int;
  by_hash : (int, entry list) Hashtbl.t;  (** [Absdata.hash] to entries *)
  view_ids : (string, int) Hashtbl.t;  (** encoded memory half to view id *)
  mutable count : int;
  mutable computed : int;
}

type node = { st : State.t; e : entry }

let create ~flush ~seed =
  { flush; seed; by_hash = Hashtbl.create 1024; view_ids = Hashtbl.create 1024;
    count = 0; computed = 0 }

let state n = n.st
let id n = n.e.eid
let monitors m = m.count
let views_computed m = m.computed

let intern m d =
  let h = Absdata.hash d in
  let same = Option.value ~default:[] (Hashtbl.find_opt m.by_hash h) in
  match List.find_opt (fun e -> Absdata.equal e.mon d) same with
  | Some e -> e
  | None ->
      let e =
        { mon = d; eid = m.count; inv = None; key = None; views = []; twins = [];
          effects = [] }
      in
      m.count <- m.count + 1;
      Hashtbl.replace m.by_hash h (e :: same);
      e

let with_entry st e =
  if st.State.mon == e.mon then { st; e } else { st = { st with State.mon = e.mon }; e }

let node m st = with_entry st (intern m st.State.mon)

let derive m ~parent st =
  if st.State.mon == parent.e.mon then { st; e = parent.e }
  else with_entry st (intern m st.State.mon)

let memo find add compute =
  match find () with
  | Some v -> v
  | None ->
      let v = compute () in
      add v;
      v

(* The hypercall effect on [e]'s monitor, with its result monitor
   interned.  A failing call returns its input monitor, so its result
   is [e] itself. *)
let effect m e a =
  memo
    (fun () -> List.assoc_opt a e.effects)
    (fun v -> e.effects <- (a, v) :: e.effects)
    (fun () ->
      let o = Transition.hypercall e.mon a in
      let e' = if o.Hypercall.d == e.mon then e else intern m o.Hypercall.d in
      ({ o with Hypercall.d = e'.mon }, e'))

let step m n a =
  let result = ref n.e in
  let hypercall _ a =
    let o, e' = effect m n.e a in
    result := e';
    o
  in
  Result.map
    (fun st ->
      if st.State.mon == !result.mon then { st; e = !result } else derive m ~parent:n st)
    (Transition.step_with ~hypercall ~flush:m.flush n.st a)

let twin m ~observer n =
  let e, rng =
    memo
      (fun () -> List.assoc_opt observer n.e.twins)
      (fun v -> n.e.twins <- (observer, v) :: n.e.twins)
      (fun () ->
        let d, rng = Check.Gen.perturb_memory ~seed:m.seed ~observer n.e.mon in
        (intern m d, rng))
  in
  { st = Check.Gen.perturb_registers rng ~observer { n.st with State.mon = e.mon }; e }

let invariants n =
  memo
    (fun () -> n.e.inv)
    (fun v -> n.e.inv <- Some v)
    (fun () -> Invariants.check n.e.mon)

let digest n =
  let mon =
    memo
      (fun () -> n.e.key)
      (fun v -> n.e.key <- Some v)
      (fun () -> State_key.mon_string n.e.mon)
  in
  State_key.digest_with ~mon n.st

(* An exact, injective encoding of a memory half: equal encodings iff
   equal mappings (address, target, flags) and equal page contents. *)
let encode (mem : Observation.memory) =
  let b = Buffer.create 1024 in
  let word = Buffer.add_int64_le b in
  let count l = word (Int64.of_int (List.length l)) in
  let flag bit on = if on then bit else 0 in
  count mem.Observation.m_mappings;
  List.iter
    (fun (va, hpa, (f : Flags.t)) ->
      word va;
      word hpa;
      Buffer.add_char b
        (Char.chr
           (flag 1 f.Flags.present + flag 2 f.Flags.write + flag 4 f.Flags.user
           + flag 8 f.Flags.huge)))
    mem.Observation.m_mappings;
  count mem.Observation.m_pages;
  List.iter
    (fun (base, words) ->
      word base;
      count words;
      List.iter word words)
    mem.Observation.m_pages;
  Buffer.contents b

let view m p n =
  memo
    (fun () -> List.assoc_opt p n.e.views)
    (fun v -> n.e.views <- (p, v) :: n.e.views)
    (fun () ->
      m.computed <- m.computed + 1;
      Result.map
        (fun mem ->
          let key = encode mem in
          memo
            (fun () -> Hashtbl.find_opt m.view_ids key)
            (Hashtbl.add m.view_ids key)
            (fun () -> Hashtbl.length m.view_ids))
        (Observation.observe_memory n.e.mon p))

let indistinguishable m p a b =
  match view m p a with
  | Error msg -> Error msg
  | Ok va -> (
      match view m p b with
      | Error msg -> Error msg
      | Ok vb -> Ok (va = vb && Observation.cpu_equal p a.st b.st))

let unchanged m p ~before after =
  match (view m p before, view m p after) with
  | Ok v, Ok v' -> v = v' && Observation.cpu_equal p before.st after.st
  | Error msg, Error msg' -> String.equal msg msg'
  | Ok _, Error _ | Error _, Ok _ -> false
