(* Interprocedural Andersen-style points-to analysis.

   Flow-insensitive per body, summarized per call-graph SCC in
   callees-first order ({!Callgraph.sccs}), inclusion-based: every
   assignment only grows points-to sets, so each SCC reaches a
   fixpoint over a finite location lattice.

   Abstract locations are object-granular: the pointee of a formal
   parameter, the storage of a local, a [Mem] global root, the trusted
   primitives' abstract state, or unknown.  A function's summary is
   its {e footprint} — the locations it may read or write through a
   dereference, with callee footprints substituted actual-for-formal —
   plus the points-to set of its return value and the set of
   parameters whose pointer value may escape (be stored into memory,
   returned, or escape through a callee).

   The generic {!Absint.Make} evaluator collapses [Ref]/[Address_of]
   to a numeric-top leaf before any domain hook runs, so points-to
   facts cannot be expressed as one of its domains; this module walks
   the MIR directly and reuses only {!Callgraph} for the
   interprocedural order.

   A footprint is {e exact} when it contains no unknown location;
   only exact footprints back discharge certificates. *)

module Syn = Mir.Syntax
module StrMap = Map.Make (String)

type loc =
  | Lparam of int  (** pointee of the i-th formal parameter *)
  | Llocal of string  (** storage of a local of the analyzed function *)
  | Lglobal of string  (** a [Mem] global root *)
  | Labs  (** trusted-primitive abstract state *)
  | Lunknown

module LocSet = Set.Make (struct
  type t = loc

  let compare = compare
end)

let loc_to_string = function
  | Lparam i -> Printf.sprintf "param#%d" i
  | Llocal v -> Printf.sprintf "local %s" v
  | Lglobal g -> Printf.sprintf "global %s" g
  | Labs -> "abstract state"
  | Lunknown -> "unknown"

let locs_to_string s =
  String.concat ", " (List.map loc_to_string (LocSet.elements s))

type fp = { reads : LocSet.t; writes : LocSet.t }

let fp_empty = { reads = LocSet.empty; writes = LocSet.empty }

let exact (fp : fp) =
  (not (LocSet.mem Lunknown fp.reads)) && not (LocSet.mem Lunknown fp.writes)

module IntSet = Set.Make (Int)

type summary = { fp : fp; ret : LocSet.t; esc : IntSet.t }

let summary_bot = { fp = fp_empty; ret = LocSet.empty; esc = IntSet.empty }

let summary_equal a b =
  LocSet.equal a.fp.reads b.fp.reads
  && LocSet.equal a.fp.writes b.fp.writes
  && LocSet.equal a.ret b.ret
  && IntSet.equal a.esc b.esc

type info = { summary : summary; vars : LocSet.t StrMap.t }

(* A definite common location of two points-to sets, never [Lunknown]:
   what the Error-severity lint requires, so it only fires on provable
   conflicts. *)
let witness a b =
  LocSet.choose_opt (LocSet.remove Lunknown (LocSet.inter a b))

(* ------------------------------------------------------------------ *)
(* Per-body constraint solving                                         *)

let var_pts env v =
  match StrMap.find_opt v env with Some s -> s | None -> LocSet.empty

let has_deref (p : Syn.place) = List.mem Syn.Deref p.Syn.elems

let deref_count (p : Syn.place) =
  List.length (List.filter (fun e -> e = Syn.Deref) p.Syn.elems)

(* Locations a deref through [p] touches: the pointees of the base
   variable, plus unknown for every level past the first. *)
let deref_locs env (p : Syn.place) =
  let base = var_pts env p.Syn.var in
  if deref_count p > 1 then LocSet.add Lunknown base else base

(* Points-to of the value a place evaluates to. *)
let place_pts env (p : Syn.place) =
  if has_deref p then LocSet.singleton Lunknown else var_pts env p.Syn.var

let operand_pts env = function
  | Syn.Const _ -> LocSet.empty
  | Syn.Copy p | Syn.Move p -> place_pts env p

(* The storage a borrow of [p] addresses: the variable's own storage
   when there is no deref, otherwise wherever the base may point. *)
let borrow_target env (p : Syn.place) =
  if has_deref p then deref_locs env p
  else LocSet.singleton (Llocal p.Syn.var)

let rvalue_pts env = function
  | Syn.Use op | Syn.Repeat (op, _) | Syn.Cast (op, _) | Syn.Unary (_, op) ->
      operand_pts env op
  | Syn.Ref p | Syn.Address_of p -> borrow_target env p
  | Syn.Binary (_, a, b) | Syn.Checked_binary (_, a, b) ->
      LocSet.union (operand_pts env a) (operand_pts env b)
  | Syn.Len _ | Syn.Discriminant _ -> LocSet.empty
  | Syn.Aggregate (_, ops) ->
      List.fold_left
        (fun acc op -> LocSet.union acc (operand_pts env op))
        LocSet.empty ops

(* Substitute a callee summary actual-for-formal.  Callee locals are
   invisible to the caller and drop from footprints; a callee-local
   leaking through the return value becomes unknown. *)
let subst_locs ~args ~local_to env locs =
  LocSet.fold
    (fun l acc ->
      match l with
      | Lparam j -> (
          match List.nth_opt args j with
          | Some op -> LocSet.union (operand_pts env op) acc
          | None -> LocSet.add Lunknown acc)
      | Llocal _ -> (
          match local_to with
          | Some l' -> LocSet.add l' acc
          | None -> acc)
      | (Lglobal _ | Labs | Lunknown) as l -> LocSet.add l acc)
    locs LocSet.empty

type state = {
  mutable env : LocSet.t StrMap.t;
  mutable fp : fp;
  mutable esc : IntSet.t;
  mutable dirty : bool;
}

let solve_body ~(summaries : summary StrMap.t) ~prim (body : Syn.body) =
  let st =
    {
      env =
        List.fold_left
          (fun env (v, i) -> StrMap.add v (LocSet.singleton (Lparam i)) env)
          StrMap.empty
          (List.mapi (fun i v -> (v, i)) body.Syn.params);
      fp = fp_empty;
      esc = IntSet.empty;
      dirty = true;
    }
  in
  let add_pts v pts =
    if not (LocSet.is_empty pts) then begin
      let cur = var_pts st.env v in
      let joined = LocSet.union cur pts in
      if not (LocSet.equal cur joined) then begin
        st.env <- StrMap.add v joined st.env;
        st.dirty <- true
      end
    end
  in
  let add_reads locs =
    let joined = LocSet.union st.fp.reads locs in
    if not (LocSet.equal st.fp.reads joined) then begin
      st.fp <- { st.fp with reads = joined };
      st.dirty <- true
    end
  in
  let add_writes locs =
    let joined = LocSet.union st.fp.writes locs in
    if not (LocSet.equal st.fp.writes joined) then begin
      st.fp <- { st.fp with writes = joined };
      st.dirty <- true
    end
  in
  let add_esc pts =
    LocSet.iter
      (fun l ->
        match l with
        | Lparam j ->
            if not (IntSet.mem j st.esc) then begin
              st.esc <- IntSet.add j st.esc;
              st.dirty <- true
            end
        | _ -> ())
      pts
  in
  let read_place (p : Syn.place) =
    if has_deref p then add_reads (deref_locs st.env p)
  in
  let read_operand = function
    | Syn.Const _ -> ()
    | Syn.Copy p | Syn.Move p -> read_place p
  in
  let read_rvalue = function
    | Syn.Use op | Syn.Repeat (op, _) | Syn.Cast (op, _) | Syn.Unary (_, op)
      ->
        read_operand op
    | Syn.Binary (_, a, b) | Syn.Checked_binary (_, a, b) ->
        read_operand a;
        read_operand b
    | Syn.Ref _ | Syn.Address_of _ -> ()
    | Syn.Len p | Syn.Discriminant p -> read_place p
    | Syn.Aggregate (_, ops) -> List.iter read_operand ops
  in
  let write_place (p : Syn.place) pts =
    if has_deref p then begin
      add_writes (deref_locs st.env p);
      (* a pointer stored through memory escapes *)
      add_esc pts
    end
    else add_pts p.Syn.var pts
  in
  let apply_call ~dest ~func ~args =
    List.iter read_operand args;
    let s =
      match StrMap.find_opt func summaries with
      | Some s -> Some s
      | None -> prim func
    in
    match s with
    | Some s ->
        let subst ?local_to locs = subst_locs ~args ~local_to st.env locs in
        add_reads (subst s.fp.reads);
        add_writes (subst s.fp.writes);
        IntSet.iter
          (fun j ->
            match List.nth_opt args j with
            | Some op -> add_esc (operand_pts st.env op)
            | None -> ())
          s.esc;
        write_place dest (subst ~local_to:Lunknown s.ret)
    | None ->
        (* unmodeled extern: may touch anything reachable *)
        add_reads (LocSet.singleton Lunknown);
        add_writes (LocSet.singleton Lunknown);
        List.iter (fun op -> add_esc (operand_pts st.env op)) args;
        write_place dest (LocSet.singleton Lunknown)
  in
  let stmt = function
    | Syn.Assign (dest, rv) ->
        read_rvalue rv;
        write_place dest (rvalue_pts st.env rv)
    | Syn.Set_discriminant (p, _) ->
        if has_deref p then add_writes (deref_locs st.env p)
    | Syn.Storage_live _ | Syn.Storage_dead _ | Syn.Nop -> ()
  in
  let term = function
    | Syn.Goto _ | Syn.Unreachable | Syn.Return -> ()
    | Syn.Switch_int (op, _, _) -> read_operand op
    | Syn.Assert { cond; _ } -> read_operand cond
    | Syn.Drop (p, _) -> if has_deref p then read_place p
    | Syn.Call { dest; func; args; _ } -> apply_call ~dest ~func ~args
  in
  let rounds = ref 0 in
  while st.dirty && !rounds < 64 do
    st.dirty <- false;
    incr rounds;
    Array.iter
      (fun (blk : Syn.block) ->
        List.iter stmt blk.Syn.stmts;
        term blk.Syn.term)
      body.Syn.blocks
  done;
  if st.dirty then begin
    (* did not converge within the bound: widen to unknown *)
    st.fp <-
      {
        reads = LocSet.add Lunknown st.fp.reads;
        writes = LocSet.add Lunknown st.fp.writes;
      }
  end;
  let ret = var_pts st.env Syn.return_var in
  add_esc ret;
  ({ fp = st.fp; ret; esc = st.esc }, st.env)

(* ------------------------------------------------------------------ *)
(* Whole-program fixpoint, SCC by SCC                                  *)

let analyze ?(prim = fun _ -> None) (program : Syn.program) =
  let cg = Callgraph.build program in
  let sccs = Callgraph.sccs cg in
  let summaries = ref StrMap.empty in
  let infos = ref StrMap.empty in
  List.iter
    (fun members ->
      (* seed SCC members with bottom so intra-SCC calls resolve *)
      List.iter
        (fun fn ->
          if not (StrMap.mem fn !summaries) then
            summaries := StrMap.add fn summary_bot !summaries)
        members;
      let stable = ref false in
      let rounds = ref 0 in
      while (not !stable) && !rounds < 64 do
        stable := true;
        incr rounds;
        List.iter
          (fun fn ->
            match Syn.find_body program fn with
            | None -> ()
            | Some body ->
                let s, env = solve_body ~summaries:!summaries ~prim body in
                let prev = StrMap.find fn !summaries in
                if not (summary_equal prev s) then stable := false;
                summaries := StrMap.add fn s !summaries;
                infos := StrMap.add fn { summary = s; vars = env } !infos)
          members
      done)
    sccs;
  !infos

let footprint infos fn =
  match StrMap.find_opt fn infos with
  | Some i -> i.summary.fp
  | None -> { reads = LocSet.singleton Lunknown; writes = LocSet.singleton Lunknown }
