(* Alias-footprint lint (kind [Lint.Alias_footprint]) plus discharge
   certificates for per-body findings.

   Per call-graph SCC, over the Andersen summaries of {!Alias}, which
   the caller computes once for the whole program and passes in:

   - Error findings: a call passes two arguments that definitely may
     alias (a witness location common to both points-to sets, never
     [Lunknown]) to a callee whose certified footprint writes through
     both parameter positions — the no-alias assumption the callee's
     code was verified under is violated.

   - [Info] certificates, [discharged_by "alias-footprint"], which
     {!Lint.reconcile} uses to cancel Error twins the per-body lints
     cannot discharge themselves:

     {ul
     {- an [Encapsulation] call-site finding whose callee has an exact
        footprint that neither reads, writes nor escapes any pointer
        argument: the handle is provably opaque to the callee;}
     {- any [Encapsulation]/[Move_init] finding at a program point the
        interval interpretation proves unreachable — the per-body
        lints replay all syntactically reachable blocks, while the
        interprocedural solver prunes infeasible constant-switch
        edges.}}

   The policy closures ([fn_layer], [accessor], [prim]) are injected
   like {!Secret_flow.config}, keeping this library free of the
   hyperenclave layer stack. *)

module Syn = Mir.Syntax

type config = {
  program : Syn.program;
  prim : string -> Alias.summary option;
      (** Footprint models of the trusted primitives; [None] makes the
          caller's footprint inexact. *)
  fn_layer : string -> string option;
      (** layer of a function, for the encapsulation re-scan *)
  accessor : owner:string -> callee:string -> bool;
}

type stats = {
  functions : int;
  footprints : int;  (** exact footprints among the SCC's functions *)
  findings : int;  (** Error findings *)
  discharged : int;  (** certificates emitted *)
}

let discharger = Lint.to_string Lint.Alias_footprint

(* Block index of a "bbN"/"bbN[..]" where-string. *)
let block_of_where w =
  match int_of_string_opt (String.sub w 2 (String.length w - 2)) with
  | Some _ as r -> r
  | None -> (
      try Scanf.sscanf w "bb%d[" (fun b -> Some b) with _ -> None)

(* Syntactically reachable blocks the interval interpretation never
   visits: infeasible constant-switch targets.  Uses the public
   [Interval_lint.A] visitor, which skips abstractly-unreachable
   blocks. *)
let dead_blocks ctx fn =
  match Interval_lint.A.analyze ctx fn with
  | None -> [||]
  | Some (body, soln) ->
      let visited = Array.make (Array.length body.Syn.blocks) false in
      Interval_lint.A.visit body soln
        {
          Interval_lint.A.on_stmt =
            (fun ~block ~idx:_ _ _ -> visited.(block) <- true);
          on_term = (fun ~block _ _ -> visited.(block) <- true);
        };
      let reach = Cfg.reachable body in
      Array.mapi (fun i v -> reach.(i) && not v) visited

let arg_pts vars = function
  | Syn.Const _ -> Alias.LocSet.empty
  | Syn.Copy p | Syn.Move p ->
      if List.mem Syn.Deref p.Syn.elems then
        Alias.LocSet.singleton Alias.Lunknown
      else (
        match Alias.StrMap.find_opt p.Syn.var vars with
        | Some s -> s
        | None -> Alias.LocSet.empty)

(* Does the callee summary touch (read, write or escape) parameter j? *)
let touches_param (s : Alias.summary) j =
  Alias.LocSet.mem (Alias.Lparam j) s.Alias.fp.Alias.reads
  || Alias.LocSet.mem (Alias.Lparam j) s.Alias.fp.Alias.writes
  || Alias.IntSet.mem j s.Alias.esc

let writes_param (s : Alias.summary) j =
  Alias.LocSet.mem (Alias.Lparam j) s.Alias.fp.Alias.writes

let check cfg ~infos ~funcs =
  (* Dead blocks of every member, solved on the first Error finding the
     dead-block route could discharge.  One fresh interval context
     solves the members in [funcs] order whichever member forces it:
     the context memoizes callee summaries, so the arrays must not
     depend on where the first Error sits. *)
  let dead =
    lazy
      (let ictx =
         Interval_lint.A.create_ctx
           ~prim:(fun ~func:_ ~args:_ -> None)
           cfg.program
       in
       let t = Hashtbl.create 4 in
       List.iter
         (fun fn ->
           if Option.is_some (Syn.find_body cfg.program fn) then
             Hashtbl.replace t fn (dead_blocks ictx fn))
         funcs;
       t)
  in
  let findings = ref [] in
  let discharged = ref 0 in
  let certified = Hashtbl.create 16 in
  let emit fn f = findings := (fn, f) :: !findings in
  (* one certificate per (function, kind, site): the opaque-callee and
     dead-block routes may both prove the same finding *)
  let cert fn kind ~where detail =
    if not (Hashtbl.mem certified (fn, kind, where)) then begin
      Hashtbl.add certified (fn, kind, where) ();
      incr discharged;
      emit fn
        (Lint.v ~severity:Lint.Info ~discharged_by:discharger kind ~where
           detail)
    end
  in
  let scan fn =
    match Syn.find_body cfg.program fn with
    | None -> ()
    | Some body ->
        let vars =
          match Alias.StrMap.find_opt fn infos with
          | Some (i : Alias.info) -> i.Alias.vars
          | None -> Alias.StrMap.empty
        in
        let callee_summary g =
          match Alias.StrMap.find_opt g infos with
          | Some (i : Alias.info) -> Some i.Alias.summary
          | None -> cfg.prim g
        in
        let reach = Cfg.reachable body in
        (* 1. aliased-argument findings at call sites *)
        Array.iteri
          (fun b (blk : Syn.block) ->
            if reach.(b) then
              match blk.Syn.term with
              | Syn.Call { func; args; _ } -> (
                  match callee_summary func with
                  | None -> ()
                  | Some s ->
                      let pts = List.map (arg_pts vars) args in
                      List.iteri
                        (fun i pi ->
                          List.iteri
                            (fun j pj ->
                              if i < j && writes_param s i && writes_param s j
                              then
                                match Alias.witness pi pj with
                                | Some l ->
                                    emit fn
                                      (Lint.v Lint.Alias_footprint
                                         ~where:(Printf.sprintf "bb%d[term]" b)
                                         (Printf.sprintf
                                            "arguments %d and %d of call to %s \
                                             may alias (%s) and the callee \
                                             writes through both"
                                            i j func (Alias.loc_to_string l)))
                                | None -> ())
                            pts)
                        pts)
              | _ -> ())
          body.Syn.blocks;
        (* 2. opaque-callee discharge of encapsulation call findings *)
        let encap =
          Encap_lint.run
            { Encap_lint.fn_layer = cfg.fn_layer fn; accessor = cfg.accessor }
            body
        in
        List.iter
          (fun (f : Lint.finding) ->
            if
              f.Lint.severity = Lint.Error
              && Filename.check_suffix f.Lint.where "[term]"
            then
              match block_of_where f.Lint.where with
              | None -> ()
              | Some b -> (
                  match body.Syn.blocks.(b).Syn.term with
                  | Syn.Call { func; args; _ } -> (
                      match callee_summary func with
                      | Some s
                        when Alias.exact s.Alias.fp
                             && List.for_all
                                  (fun j -> not (touches_param s j))
                                  (List.mapi (fun j _ -> j) args) ->
                          cert fn Lint.Encapsulation ~where:f.Lint.where
                            (Printf.sprintf
                               "footprint of %s is exact and touches no \
                                argument: the handle stays opaque"
                               func)
                      | _ -> ())
                  | _ -> ()))
          encap;
        (* 3. dead-block discharge of per-body findings *)
        let dischargeable =
          encap
          @ Init_lint.run body
        in
        List.iter
          (fun (f : Lint.finding) ->
            if f.Lint.severity = Lint.Error then
              match block_of_where f.Lint.where with
              | Some b ->
                  let dead = Hashtbl.find (Lazy.force dead) fn in
                  if b < Array.length dead && dead.(b) then
                    cert fn f.Lint.kind ~where:f.Lint.where
                      (Printf.sprintf
                         "bb%d is abstractly unreachable (infeasible branch)" b)
              | None -> ())
          dischargeable
  in
  List.iter scan funcs;
  let errors =
    List.filter
      (fun (_, (f : Lint.finding)) -> f.Lint.severity = Lint.Error)
      !findings
  in
  let exact_fps =
    List.length
      (List.filter
         (fun fn -> Alias.exact (Alias.footprint infos fn))
         funcs)
  in
  ( List.rev !findings,
    {
      functions = List.length funcs;
      footprints = exact_fps;
      findings = List.length errors;
      discharged = !discharged;
    } )
