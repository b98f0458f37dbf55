(* Engine-facing wrapper for the borrow checker: kind selection and
   per-function stats, mirroring {!Pass} for the per-body lints. *)

module Syn = Mir.Syntax

type stats = { functions : int; loans : int; findings : int }

let run ?(lints = Lint.borrow) (body : Syn.body) =
  let selection = List.filter (fun k -> List.mem k Lint.borrow) lints in
  if selection = [] then []
  else
    List.filter
      (fun (f : Lint.finding) -> List.mem f.Lint.kind selection)
      (Borrow.check body)

let check ?(lints = Lint.borrow) ~name (body : Syn.body) =
  let selection = List.filter (fun k -> List.mem k Lint.borrow) lints in
  let findings = run ~lints:selection body in
  ( Pass.report ~name ~lints:selection findings,
    findings,
    { functions = 1; loans = Borrow.loan_sites body; findings = List.length findings } )
