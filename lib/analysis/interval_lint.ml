(* Interval-bounds certification (kind [Lint.Interval_bounds]).

   Runs the pure interval instantiation of the abstract interpreter
   over each function of an SCC that has a site to judge and produces
   two kinds of results:

   - array-index bounds: every [Pindex]/[Pconst_index] projection
     whose base is a sized array must have an index interval inside
     [0, len); an index that may escape is an [Error] finding;

   - unchecked-arithmetic discharge: each site the per-body
     [Arith_lint] flags is re-examined with the operand intervals in
     force; when the operation provably cannot wrap, an [Info]
     certificate with the same [where] key is emitted, and
     [Lint.reconcile] later cancels the corresponding [Error].

   Parameters are unconstrained (top), so a bound certified here holds
   for every caller. *)

module Syn = Mir.Syntax
module Word = Mir.Word

(* Pure interval domain: the interprocedural labelling degenerates to
   the identity (intervals are already context-evaluated). *)
module Dom = struct
  type v = Interval.t

  let name = "interval"
  let top = Interval.top
  let equal = Interval.equal
  let join = Interval.join
  let widen = Interval.widen
  let narrow = Interval.narrow
  let is_bot = Interval.is_bot

  let of_const = function
    | Syn.Cint (w, _) -> Interval.of_word w
    | Syn.Cbool b -> Interval.of_bool b
    | Syn.Cunit | Syn.Cfn _ -> Interval.top

  let binop = Interval.binop
  let checked = Interval.checked

  let unop op v =
    match op with
    | Syn.Not -> Interval.lognot_ v
    | Syn.Neg -> Interval.neg v

  let cast = Interval.cast
  let deref _ = Interval.top
  let interval v = v
  let with_interval _ iv = iv
  let label_arg _ v = v
  let subst ~actuals:_ v = v

  type eff = unit

  let eff_bot = ()
  let eff_join () () = ()
  let eff_top ~arity:_ = ()
  let subst_eff ~actuals:_ () = ((), false)
  let key = Interval.to_string
end

module A = Absint.Make (Dom)

type stats = {
  functions : int;
  bound_checks : int; (* indexing sites examined *)
  findings : int; (* indices that may escape *)
  discharged : int; (* unchecked-arith certificates *)
  iterations : int;
}

(* Indexing steps of a place: [(index_interval, len, via)] for each
   sized-array projection, resolved against the declared local type. *)
let index_checks body env (p : Syn.place) =
  let rec walk ty elems acc =
    match elems with
    | [] -> acc
    | el :: rest -> (
        match (ty, el) with
        | Some (Mir.Ty.Array (t, n)), Syn.Pindex ixvar ->
            let iv = A.collapse (A.read_var env ixvar) in
            walk (Some t) rest ((iv, n, ixvar) :: acc)
        | Some (Mir.Ty.Array (t, n)), Syn.Pconst_index i ->
            walk (Some t) rest ((Interval.of_int i, n, string_of_int i) :: acc)
        | Some (Mir.Ty.Ref t | Mir.Ty.Raw t), Syn.Deref ->
            walk (Some t) rest acc
        | Some (Mir.Ty.Tuple ts), Syn.Pfield i ->
            walk (List.nth_opt ts i) rest acc
        | _, Syn.Downcast _ -> walk ty rest acc
        | _, _ -> walk None rest acc)
  in
  let base =
    List.find_opt
      (fun (d : Syn.local_decl) -> String.equal d.Syn.lname p.Syn.var)
      body.Syn.locals
    |> Option.map (fun (d : Syn.local_decl) -> d.Syn.lty)
  in
  walk base p.Syn.elems []

let operand_places =
  List.filter_map (function
    | Syn.Copy p | Syn.Move p -> Some p
    | Syn.Const _ -> None)

let places_of_rvalue = function
  | Syn.Use o | Syn.Repeat (o, _) | Syn.Cast (o, _) | Syn.Unary (_, o) ->
      operand_places [ o ]
  | Syn.Binary (_, a, b) | Syn.Checked_binary (_, a, b) ->
      operand_places [ a; b ]
  | Syn.Ref p | Syn.Address_of p | Syn.Len p | Syn.Discriminant p -> [ p ]
  | Syn.Aggregate (_, os) -> operand_places os

(* The places the bounds check reads at a statement and at a
   terminator, in the order it reads them. *)
let stmt_places = function
  | Syn.Assign (dest, rv) -> dest :: places_of_rvalue rv
  | Syn.Set_discriminant (p, _) -> [ p ]
  | Syn.Storage_live _ | Syn.Storage_dead _ | Syn.Nop -> []

let term_places = function
  | Syn.Call { dest; args; _ } -> dest :: operand_places args
  | Syn.Drop (p, _) -> [ p ]
  | Syn.Goto _ | Syn.Switch_int _ | Syn.Return | Syn.Unreachable | Syn.Assert _ ->
      []

let in_bounds iv n =
  n > 0 && Interval.subset iv (Interval.v 0L (Word.of_int Word.W64 (n - 1)))

let overflow_free op ia ib =
  match (Interval.bounds ia, Interval.bounds ib) with
  | Some (al, ah), Some (_, bh) -> (
      match op with
      | Syn.Add -> not (Word.add_overflows ah bh)
      | Syn.Mul -> not (Word.mul_overflows ah bh)
      | Syn.Sub -> Word.le_u bh al (* never borrows iff min a >= max b *)
      | _ -> false)
  | _ -> false

(* Findings for one function, tagged with its name. *)
let check_function ctx fn =
  match A.analyze ctx fn with
  | None -> ([], 0, 0)
  | Some (body, soln) ->
      let findings = ref [] in
      let checks = ref 0 in
      let discharged = ref 0 in
      let arith_sites = Arith_lint.sites body in
      let check_place ~where env p =
        List.iter
          (fun (iv, n, via) ->
            incr checks;
            if not (in_bounds iv n) then
              findings :=
                Lint.v Lint.Interval_bounds ~where
                  (Printf.sprintf "index %s = %s may escape array bound %d" via
                     (Interval.to_string iv) n)
                :: !findings)
          (index_checks body env p)
      in
      A.visit body soln
        {
          A.on_stmt =
            (fun ~block ~idx env stmt ->
              let where = Printf.sprintf "bb%d[%d]" block idx in
              List.iter (check_place ~where env) (stmt_places stmt);
              (* unchecked-arith discharge at the flagged sites *)
              List.iter
                (fun (s : Arith_lint.site) ->
                  if s.Arith_lint.block = block && s.Arith_lint.stmt = idx
                  then
                    let ia = A.scalar env s.Arith_lint.lhs
                    and ib = A.scalar env s.Arith_lint.rhs in
                    if overflow_free s.Arith_lint.op ia ib then begin
                      incr discharged;
                      findings :=
                        Lint.v ~severity:Lint.Info
                          ~discharged_by:(Lint.to_string Lint.Interval_bounds)
                          Lint.Unchecked_arith
                          ~where:(Arith_lint.site_where s)
                          (Printf.sprintf
                             "proved overflow-free: %s on %s and %s"
                             (Arith_lint.op_name s.Arith_lint.op)
                             (Interval.to_string ia) (Interval.to_string ib))
                        :: !findings
                    end)
                arith_sites);
          A.on_term =
            (fun ~block env term ->
              let where = Printf.sprintf "bb%d" block in
              List.iter (check_place ~where env) (term_places term));
        };
      (List.rev !findings |> List.map (fun f -> (fn, f)), !checks, !discharged)

let indexes (p : Syn.place) =
  List.exists
    (function Syn.Pindex _ | Syn.Pconst_index _ -> true | _ -> false)
    p.Syn.elems

(* Can [check_function] report anything for [body]?  Only at an
   unchecked-arith site or at an index projection of a place it reads.
   Syntactic over every block, so it covers the blocks the solved
   visit reaches. *)
let has_site body =
  Array.exists
    (fun (blk : Syn.block) ->
      List.exists (fun st -> List.exists indexes (stmt_places st)) blk.Syn.stmts
      || List.exists indexes (term_places blk.Syn.term))
    body.Syn.blocks
  || Arith_lint.sites body <> []

let check ?table program ~funcs =
  let solve =
    List.exists
      (fun fn ->
        match Syn.find_body program fn with
        | Some body -> has_site body
        | None -> false)
      funcs
  in
  let findings, checks, discharged, iterations =
    if not solve then ([], 0, 0, 0)
    else
      let (fs, cs, ds), s =
        A.run ?table ~prim:(fun ~func:_ ~args:_ -> None) program (fun ctx ->
            List.fold_left
              (fun (fs, cs, ds) fn ->
                let f, c, d = check_function ctx fn in
                (fs @ f, cs + c, ds + d))
              ([], 0, 0) funcs)
      in
      (fs, cs, ds, s.A.iterations)
  in
  let errors =
    List.filter
      (fun (_, (f : Lint.finding)) -> f.Lint.severity = Lint.Error)
      findings
  in
  ( findings,
    {
      functions = List.length funcs;
      bound_checks = checks;
      findings = List.length errors;
      discharged;
      iterations;
    } )
