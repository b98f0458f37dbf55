(* Secret-flow noninterference lint (kind [Lint.Secret_flow]).

   Runs the taint instantiation of the abstract interpreter over each
   function of an SCC and reports every way enclave-secret state can
   reach a primary-OS-observable location other than through the
   marshalling buffer:

   - a trusted-primitive write whose value may be secret and whose
     target address is classified observable (the [prim] model returns
     a non-empty effect: the labels reaching the sink at that site);
   - a call passing a secret actual to a callee whose summary says
     that argument reaches a sink (the caller-side finding
     [Absint.apply_call] reports);
   - a secret value returned from a boundary function (a hypercall
     handler's return value is the primary OS's register state).

   What counts as a source, a sink and sanctioned declassification is
   the client's policy, supplied as closures — [lib/security] derives
   them from the physical [Layout] so this module stays layout- and
   layer-agnostic. *)

module Syn = Mir.Syntax
module A = Absint.Make (Taint.Dom)

type config = {
  program : Syn.program;
  prim : func:string -> args:A.value list -> (A.value * Taint.Labels.t) option;
      (** Model of the trusted primitives: result value and the labels
          reaching an observable sink at this call (empty = no sink,
          secret bit set = finding). *)
  boundary : string -> bool;
      (** Functions whose return value the primary OS observes. *)
}

type stats = {
  functions : int;
  findings : int;
  iterations : int;
  summaries : int;
}

let describe_srcs labels =
  match Taint.Labels.sources labels with
  | [] -> ""
  | srcs -> Printf.sprintf " (secret from %s)" (String.concat ", " srcs)

(* Findings for one function, tagged with its name. *)
let check_function ctx cfg fn =
  match A.analyze ctx fn with
  | None -> []
  | Some (body, soln) ->
      let findings = ref [] in
      let add ~block detail =
        findings :=
          Lint.v Lint.Secret_flow ~where:(Printf.sprintf "bb%d" block) detail
          :: !findings
      in
      A.visit body soln
        {
          A.on_stmt = (fun ~block:_ ~idx:_ _ _ -> ());
          A.on_term =
            (fun ~block env term ->
              match term with
              | Syn.Call { func; args; _ } -> (
                  let avs = List.map (A.eval_operand env) args in
                  match cfg.prim ~func ~args:avs with
                  | Some (_, eff) ->
                      if Taint.Labels.is_secret eff then
                        add ~block
                          (Printf.sprintf
                             "secret value reaches an OS-observable location \
                              via %s%s"
                             func (describe_srcs eff))
                  | None -> (
                      match A.apply_call ctx func avs with
                      | Some (_, _, true) ->
                          add ~block
                            (Printf.sprintf
                               "secret argument flows to an OS-observable \
                                sink inside %s"
                               func)
                      | Some _ | None -> ()))
              | Syn.Return ->
                  if cfg.boundary fn then begin
                    let ret = A.collapse (A.read_var env Syn.return_var) in
                    if Taint.Labels.is_secret ret.Taint.Dom.lbl then
                      add ~block
                        (Printf.sprintf
                           "secret value returned to the primary OS%s"
                           (describe_srcs ret.Taint.Dom.lbl))
                  end
              | Syn.Goto _ | Syn.Switch_int _ | Syn.Unreachable | Syn.Drop _
              | Syn.Assert _ -> ());
        };
      List.rev_map (fun f -> (fn, f)) !findings |> List.rev

let check ?table cfg ~funcs =
  let findings, s =
    A.run ?table ~prim:cfg.prim cfg.program (fun ctx ->
        List.concat_map (check_function ctx cfg) funcs)
  in
  ( findings,
    {
      functions = List.length funcs;
      findings = List.length findings;
      iterations = s.A.iterations;
      summaries = s.A.summaries;
    } )
