(* Generic abstract interpreter over MIRlight (the lib/analysis
   tentpole).

   [Make (D)] instantiates a forward interpreter for an abstract
   domain [D] whose scalars carry at least an interval component
   (D.interval / D.with_interval expose it to the generic refinement
   machinery).  On top of the Cfg view it adds what the plain
   [Dataflow] solver does not have:

   - structured values: locals hold trees (scalars, tuples/structs,
     array summaries), so the lowered checked-arithmetic pairs and the
     WalkRes-style result structs keep their fields apart;
   - edge-sensitive propagation with branch refinement: Switch_int
     cases, lowered [Assert]s (overflow flags, division guards) and
     comparison predicates bound to boolean temps all constrain the
     interval components on the outgoing edge;
   - widening at retreating-edge targets (to a per-body threshold set
     harvested from its literals) followed by a bounded narrowing
     sweep, so loops over page-table walks converge in a bounded
     number of iterations and still end with precise bounds;
   - interprocedural call summaries, context-sensitive on the abstract
     arguments and memoized per context (bounded, with a top-context
     fallback), arguments tagged through [D.label_arg] so a callee's
     summary effect can name which argument reaches a sink;
   - a summary table that several analyses of one program share, read
     and filled only where that leaves each analysis's result exactly
     that of a fresh context (see [run]).

   The three MIRlight pointer kinds ([Ref], [Address_of]/raw, and
   opaque layer handles) are all monitor-local: dereferencing yields
   [D.deref] (public/top in both shipped domains) and writes through
   pointers are not tracked.  Enclave memory is only reachable through
   the trusted primitives, which the client models via [ctx.prim] —
   the trusted getter/setter summaries. *)

module Syn = Mir.Syntax
module Word = Mir.Word
module StrMap = Map.Make (String)

module type DOMAIN = sig
  type v

  val name : string
  val top : v
  val equal : v -> v -> bool
  val join : v -> v -> v
  val widen : thresholds:Word.t list -> v -> v -> v
  val narrow : v -> v -> v
  val is_bot : v -> bool

  val of_const : Syn.constant -> v
  val binop : Syn.bin_op -> v -> v -> v
  val checked : Syn.bin_op -> v -> v -> v * v
  val unop : Syn.un_op -> v -> v
  val cast : Mir.Ty.int_ty -> v -> v
  val deref : v -> v

  val interval : v -> Interval.t

  val with_interval : v -> Interval.t -> v
  (** Replace the numeric component (labels and any other components
      are preserved): the hook the generic branch refinement
      constrains values through. *)

  (** {2 Interprocedural labelling} *)

  val label_arg : int -> v -> v
  (** Tag the [i]-th entry parameter of a summary context. *)

  val subst : actuals:v list -> v -> v
  (** Rewrite a summary result from the callee frame into the caller
      frame (argument tags become the actuals' labels). *)

  type eff
  (** Summary effect: what a call may do besides returning (for the
      taint domain, the labels that may reach an observable sink). *)

  val eff_bot : eff
  val eff_join : eff -> eff -> eff
  val eff_top : arity:int -> eff

  val subst_eff : actuals:v list -> eff -> eff * bool
  (** Callee effect seen from the call site: the effect in the caller
      frame, and whether one of the actuals carries a secret into the
      callee's sink (the caller-side finding). *)

  val key : v -> string
  (** Canonical rendering, the memo key of summary contexts. *)
end

(* Structured abstract values: one level of tuple/struct fields kept
   apart (enough for the lowered checked pairs and result structs),
   arrays summarized by one element. *)
type 'v aval =
  | Leaf of 'v
  | Tup of 'v aval array
  | Arr of { elt : 'v aval; len : int }

module Make (D : DOMAIN) = struct
  type value = D.v aval

  let rec map_leaves f = function
    | Leaf v -> Leaf (f v)
    | Tup a -> Tup (Array.map (map_leaves f) a)
    | Arr { elt; len } -> Arr { elt = map_leaves f elt; len }

  let rec collapse = function
    | Leaf v -> v
    | Tup a ->
        if Array.length a = 0 then D.top
        else
          Array.fold_left
            (fun acc x -> D.join acc (collapse x))
            (collapse a.(0))
            a
    | Arr { elt; _ } -> collapse elt

  let rec combine f a b =
    match (a, b) with
    | Leaf x, Leaf y -> Leaf (f x y)
    | Tup xs, Tup ys when Array.length xs = Array.length ys ->
        Tup (Array.map2 (combine f) xs ys)
    | Arr { elt = x; len = lx }, Arr { elt = y; len = ly } when lx = ly ->
        Arr { elt = combine f x y; len = lx }
    | _ -> Leaf (f (collapse a) (collapse b))

  let join_v = combine D.join
  let widen_v ~thresholds = combine (D.widen ~thresholds)
  let narrow_v = combine D.narrow

  let rec equal_v a b =
    match (a, b) with
    | Leaf x, Leaf y -> D.equal x y
    | Tup xs, Tup ys ->
        Array.length xs = Array.length ys
        && (let ok = ref true in
            Array.iteri
              (fun i x -> if not (equal_v x ys.(i)) then ok := false)
              xs;
            !ok)
    | Arr { elt = x; len = lx }, Arr { elt = y; len = ly } ->
        lx = ly && equal_v x y
    | (Leaf _ | Tup _ | Arr _), _ -> false

  let rec key_v = function
    | Leaf v -> D.key v
    | Tup a -> "(" ^ String.concat "," (Array.to_list (Array.map key_v a)) ^ ")"
    | Arr { elt; len } -> Printf.sprintf "[%s;%d]" (key_v elt) len

  let top_v = Leaf D.top

  (* ---------------------------------------------------------------- *)
  (* Environments                                                      *)

  (* [preds] remembers what produced a boolean or checked-pair temp so
     branch edges can constrain the original operands; a binding dies
     as soon as any variable it mentions is reassigned. *)
  type pred =
    | Cmp of Syn.bin_op * Syn.operand * Syn.operand
    | NotOf of string
    | Chk of Syn.bin_op * Syn.operand * Syn.operand

  type env = { vars : value StrMap.t; preds : pred StrMap.t }

  let env_empty = { vars = StrMap.empty; preds = StrMap.empty }

  let read_var env var =
    match StrMap.find_opt var env.vars with Some v -> v | None -> top_v

  let operand_mentions var = function
    | Syn.Copy p | Syn.Move p -> String.equal p.Syn.var var
    | Syn.Const _ -> false

  let pred_mentions var = function
    | Cmp (_, a, b) | Chk (_, a, b) ->
        operand_mentions var a || operand_mentions var b
    | NotOf u -> String.equal u var

  let invalidate env var =
    {
      env with
      preds =
        StrMap.filter
          (fun k p -> not (String.equal k var) && not (pred_mentions var p))
          env.preds;
    }

  let join_env a b =
    {
      vars =
        StrMap.merge
          (fun _ x y ->
            match (x, y) with Some x, Some y -> Some (join_v x y) | _ -> None)
          a.vars b.vars;
      preds =
        StrMap.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y when x = y -> Some x
            | _ -> None)
          a.preds b.preds;
    }

  let widen_env ~thresholds old next =
    {
      vars =
        StrMap.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y -> Some (widen_v ~thresholds x y)
            | _ -> None)
          old.vars next.vars;
      preds =
        StrMap.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y when x = y -> Some x
            | _ -> None)
          old.preds next.preds;
    }

  let narrow_env old next =
    {
      old with
      vars =
        StrMap.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y -> Some (narrow_v x y)
            | Some x, None -> Some x
            | None, _ -> None)
          old.vars next.vars;
    }

  let equal_env a b =
    StrMap.equal equal_v a.vars b.vars && StrMap.equal ( = ) a.preds b.preds

  (* ---------------------------------------------------------------- *)
  (* Types (for Len, array bounds and boolean-vs-bitwise Not)          *)

  let local_ty (body : Syn.body) var =
    List.find_opt
      (fun (d : Syn.local_decl) -> String.equal d.Syn.lname var)
      body.Syn.locals
    |> Option.map (fun (d : Syn.local_decl) -> d.Syn.lty)

  let rec ty_project ty elems =
    match (ty, elems) with
    | _, [] -> Some ty
    | (Mir.Ty.Ref t | Mir.Ty.Raw t), Syn.Deref :: rest -> ty_project t rest
    | Mir.Ty.Tuple ts, Syn.Pfield i :: rest ->
        if i < List.length ts then ty_project (List.nth ts i) rest else None
    | Mir.Ty.Array (t, _), (Syn.Pindex _ | Syn.Pconst_index _) :: rest ->
        ty_project t rest
    | t, Syn.Downcast _ :: rest -> ty_project t rest
    | _ -> None

  let ty_of_place body (p : Syn.place) =
    match local_ty body p.Syn.var with
    | Some ty -> ty_project ty p.Syn.elems
    | None -> None

  let operand_is_bool body = function
    | Syn.Const (Syn.Cbool _) -> true
    | Syn.Const (Syn.Cint _ | Syn.Cunit | Syn.Cfn _) -> false
    | Syn.Copy p | Syn.Move p -> ty_of_place body p = Some Mir.Ty.Bool

  (* ---------------------------------------------------------------- *)
  (* Places                                                            *)

  let read_place env (p : Syn.place) =
    let rec proj v = function
      | [] -> v
      | Syn.Deref :: rest -> proj (Leaf (D.deref (collapse v))) rest
      | Syn.Pfield i :: rest -> (
          match v with
          | Tup a when i < Array.length a -> proj a.(i) rest
          | _ -> proj (Leaf (collapse v)) rest)
      | (Syn.Pindex _ | Syn.Pconst_index _) :: rest -> (
          match v with
          | Arr { elt; _ } -> proj elt rest
          | _ -> proj (Leaf (collapse v)) rest)
      | Syn.Downcast _ :: rest -> proj v rest
    in
    proj (read_var env p.Syn.var) p.Syn.elems

  (* Strong update through tuple fields, weak (joining) update through
     array indices; writes through Deref are dropped (monitor-local
     pointer targets, see the module comment). *)
  let write_place env (p : Syn.place) value =
    let rec upd v = function
      | [] -> Some value
      | Syn.Deref :: _ -> None
      | Syn.Pfield i :: rest -> (
          match v with
          | Tup a when i < Array.length a ->
              Option.map
                (fun fi ->
                  let a' = Array.copy a in
                  a'.(i) <- fi;
                  Tup a')
                (upd a.(i) rest)
          | _ -> Some (Leaf (D.join (collapse v) (collapse value))))
      | (Syn.Pindex _ | Syn.Pconst_index _) :: rest -> (
          match v with
          | Arr { elt; len } ->
              Option.map (fun e -> Arr { elt = join_v elt e; len }) (upd elt rest)
          | _ -> Some (Leaf (D.join (collapse v) (collapse value))))
      | Syn.Downcast _ :: rest -> upd v rest
    in
    let env = invalidate env p.Syn.var in
    match upd (read_var env p.Syn.var) p.Syn.elems with
    | Some v -> { env with vars = StrMap.add p.Syn.var v env.vars }
    | None -> env

  (* ---------------------------------------------------------------- *)
  (* Widening thresholds: the literals that can actually stop an
     ascending chain — comparison operands, switch cases, assert
     conditions — each with its two neighbours (so both strict and
     inclusive loop bounds land exactly), plus the lattice extremes.

     Harvesting every literal of the body (arithmetic constants, call
     arguments, aggregate fields) used to put dozens of irrelevant
     stops between a loop counter and its real bound; each stop is one
     more widening round at every retreating edge that crosses it.
     Only literals a branch can test against ever make a widened bound
     *stable*, so only those earn a threshold.                         *)

  let thresholds_of (body : Syn.body) =
    let acc = ref [ 0L; 1L; Word.umax ] in
    let add w = acc := w :: Word.sub_sat w 1L :: Word.add_sat w 1L :: !acc in
    let operand = function
      | Syn.Const (Syn.Cint (w, _)) -> add w
      | Syn.Const (Syn.Cbool _ | Syn.Cunit | Syn.Cfn _)
      | Syn.Copy _ | Syn.Move _ -> ()
    in
    let is_cmp = function
      | Syn.Eq | Syn.Ne | Syn.Lt | Syn.Le | Syn.Gt | Syn.Ge -> true
      | Syn.Add | Syn.Sub | Syn.Mul | Syn.Div | Syn.Rem | Syn.Bit_and
      | Syn.Bit_or | Syn.Bit_xor | Syn.Shl | Syn.Shr -> false
    in
    let rvalue = function
      | Syn.Binary (op, a, b) | Syn.Checked_binary (op, a, b) ->
          if is_cmp op then begin
            operand a;
            operand b
          end
      | Syn.Use _ | Syn.Repeat _ | Syn.Cast _ | Syn.Unary _ | Syn.Aggregate _
      | Syn.Ref _ | Syn.Address_of _ | Syn.Len _ | Syn.Discriminant _ -> ()
    in
    Array.iter
      (fun (blk : Syn.block) ->
        List.iter
          (function
            | Syn.Assign (_, rv) -> rvalue rv
            | Syn.Set_discriminant _ | Syn.Storage_live _ | Syn.Storage_dead _
            | Syn.Nop -> ())
          blk.Syn.stmts;
        match blk.Syn.term with
        | Syn.Switch_int (o, cases, _) ->
            operand o;
            List.iter (fun (w, _) -> add w) cases
        | Syn.Assert { cond; _ } -> operand cond
        | Syn.Call _ | Syn.Goto _ | Syn.Return | Syn.Unreachable | Syn.Drop _ -> ())
      body.Syn.blocks;
    List.sort_uniq Word.compare_u !acc

  (* ---------------------------------------------------------------- *)
  (* Intraprocedural transfer (calls excepted)                         *)

  let eval_operand env = function
    | Syn.Copy p | Syn.Move p -> read_place env p
    | Syn.Const c -> Leaf (D.of_const c)

  let scalar env o = collapse (eval_operand env o)

  (* Boolean complement on the interval component; labels kept. *)
  let bool_not v =
    let iv = D.interval v in
    let iv' =
      match Interval.bounds iv with
      | Some (lo, hi) when Word.le_u hi 1L ->
          Interval.v (Word.sub_sat 1L hi) (Word.sub_sat 1L lo)
      | Some _ -> Interval.boolean
      | None -> Interval.bot
    in
    D.with_interval v iv'

  let eval_rvalue body env = function
    | Syn.Use o -> eval_operand env o
    | Syn.Repeat (o, n) -> Arr { elt = eval_operand env o; len = n }
    | Syn.Ref p | Syn.Address_of p ->
        (* numeric-top, but the pointer keeps the pointee's labels so
           derefs downstream stay conservatively labelled *)
        Leaf (D.join D.top (collapse (read_place env p)))
    | Syn.Len p -> (
        match read_place env p with
        | Arr { len; _ } ->
            Leaf (D.of_const (Syn.Cint (Int64.of_int len, Mir.Ty.U64)))
        | Leaf _ | Tup _ -> (
            match ty_of_place body p with
            | Some (Mir.Ty.Array (_, n)) ->
                Leaf (D.of_const (Syn.Cint (Int64.of_int n, Mir.Ty.U64)))
            | _ -> top_v))
    | Syn.Cast (o, ity) -> Leaf (D.cast ity (scalar env o))
    | Syn.Binary (op, a, b) -> Leaf (D.binop op (scalar env a) (scalar env b))
    | Syn.Checked_binary (op, a, b) ->
        let r, f = D.checked op (scalar env a) (scalar env b) in
        Tup [| Leaf r; Leaf f |]
    | Syn.Unary (Syn.Not, o) ->
        if operand_is_bool body o then Leaf (bool_not (scalar env o))
        else Leaf (D.unop Syn.Not (scalar env o))
    | Syn.Unary (Syn.Neg, o) -> Leaf (D.unop Syn.Neg (scalar env o))
    | Syn.Discriminant _ -> top_v
    | Syn.Aggregate (Syn.Agg_array, os) ->
        let vs = List.map (eval_operand env) os in
        let elt =
          match vs with [] -> top_v | v :: rest -> List.fold_left join_v v rest
        in
        Arr { elt; len = List.length os }
    | Syn.Aggregate ((Syn.Agg_tuple | Syn.Agg_struct _ | Syn.Agg_variant _), os)
      ->
        Tup (Array.of_list (List.map (eval_operand env) os))

  let transfer_stmt body env = function
    | Syn.Assign (p, rv) ->
        let v = eval_rvalue body env rv in
        let env = write_place env p v in
        if p.Syn.elems <> [] then env
        else
          let record pr =
            { env with preds = StrMap.add p.Syn.var pr env.preds }
          in
          (match rv with
          | Syn.Binary
              ( ((Syn.Eq | Syn.Ne | Syn.Lt | Syn.Le | Syn.Gt | Syn.Ge) as op),
                a,
                b ) ->
              record (Cmp (op, a, b))
          | Syn.Checked_binary (op, a, b) -> record (Chk (op, a, b))
          | Syn.Unary (Syn.Not, (Syn.Copy q | Syn.Move q))
            when q.Syn.elems = [] ->
              record (NotOf q.Syn.var)
          | _ -> env)
    | Syn.Set_discriminant (p, _) -> write_place env p top_v
    | Syn.Storage_live x | Syn.Storage_dead x ->
        let env = invalidate env x in
        { env with vars = StrMap.remove x env.vars }
    | Syn.Nop -> env

  (* ---- branch refinement ----------------------------------------- *)

  (* Meet the interval component of the scalar at a place; [None] when
     it empties, i.e. the edge is infeasible.  Only Leaf scalars are
     tightened — refining a whole aggregate with a scalar interval
     would over-constrain unrelated fields. *)
  let constrain_place env (p : Syn.place) iv =
    let ok = ref true in
    let tighten v =
      match v with
      | Leaf x ->
          let m = Interval.meet (D.interval x) iv in
          if Interval.is_bot m then ok := false;
          Leaf (D.with_interval x m)
      | Tup _ | Arr _ -> v
    in
    let rec upd v = function
      | [] -> Some (tighten v)
      | Syn.Pfield i :: rest -> (
          match v with
          | Tup a when i < Array.length a ->
              Option.map
                (fun fi ->
                  let a' = Array.copy a in
                  a'.(i) <- fi;
                  Tup a')
                (upd a.(i) rest)
          | _ -> Some v)
      | (Syn.Deref | Syn.Pindex _ | Syn.Pconst_index _) :: _ -> Some v
      | Syn.Downcast _ :: rest -> upd v rest
    in
    match upd (read_var env p.Syn.var) p.Syn.elems with
    | Some v when !ok -> Some { env with vars = StrMap.add p.Syn.var v env.vars }
    | _ -> None

  let constrain_operand env op iv =
    match op with
    | Syn.Copy p | Syn.Move p -> constrain_place env p iv
    | Syn.Const c ->
        if Interval.is_bot (Interval.meet (D.interval (D.of_const c)) iv) then
          None
        else Some env

  (* Refine both operands of a recorded comparison. *)
  let refine_cmp env op ~truth a b =
    let ia = D.interval (scalar env a) and ib = D.interval (scalar env b) in
    match Interval.refine_cmp op ~truth ia ib with
    | None -> None
    | Some (ia', ib') ->
        Option.bind (constrain_operand env a ia') (fun env ->
            constrain_operand env b ib')

  (* Constrain [op] to the boolean [truth], following recorded
     predicates (comparisons, negations, checked-pair flags). *)
  let rec refine_operand body env op ~truth =
    match op with
    | Syn.Const (Syn.Cbool b) -> if b = truth then Some env else None
    | Syn.Const (Syn.Cint (w, _)) ->
        if (not (Word.equal w 0L)) = truth then Some env else None
    | Syn.Const (Syn.Cunit | Syn.Cfn _) -> Some env
    | Syn.Copy p | Syn.Move p -> (
        match p.Syn.elems with
        | [] -> (
            let var = p.Syn.var in
            match constrain_place env p (Interval.of_bool truth) with
            | None -> None
            | Some env -> (
                match StrMap.find_opt var env.preds with
                | Some (Cmp (op, a, b)) -> refine_cmp env op ~truth a b
                | Some (NotOf u) ->
                    refine_operand body env
                      (Syn.Copy (Syn.place_of_var u))
                      ~truth:(not truth)
                | Some (Chk _) | None -> Some env))
        | [ Syn.Pfield 1 ] -> (
            (* the lowered overflow assertion on a checked pair *)
            match StrMap.find_opt p.Syn.var env.preds with
            | Some (Chk (op, a, b)) ->
                if truth then constrain_place env p (Interval.of_bool true)
                else
                  Option.bind
                    (constrain_place env p (Interval.of_bool false))
                    (fun env ->
                      let envelope =
                        Interval.no_overflow op
                          (D.interval (scalar env a))
                          (D.interval (scalar env b))
                      in
                      if Interval.is_bot envelope then None
                      else
                        constrain_place env
                          { p with Syn.elems = [ Syn.Pfield 0 ] }
                          envelope)
            | _ -> constrain_place env p (Interval.of_bool truth))
        | _ -> constrain_place env p (Interval.of_bool truth))

  (* After pinning an operand to an integer, its comparison predicate
     (if the operand is boolean) follows. *)
  let refine_operand_int body env op w =
    match constrain_operand env op (Interval.of_word w) with
    | None -> None
    | Some env -> (
        match op with
        | (Syn.Copy p | Syn.Move p)
          when p.Syn.elems = [] && operand_is_bool body op -> (
            match StrMap.find_opt p.Syn.var env.preds with
            | Some (Cmp (cop, a, b)) ->
                refine_cmp env cop ~truth:(not (Word.equal w 0L)) a b
            | Some (NotOf u) ->
                refine_operand body env
                  (Syn.Copy (Syn.place_of_var u))
                  ~truth:(Word.equal w 0L)
            | Some (Chk _) | None -> Some env)
        | _ -> Some env)

  let refine_operand_ne body env op w =
    let iv = D.interval (scalar env op) in
    match Interval.refine_ne iv (Interval.of_word w) with
    | None -> None
    | Some (iv', _) -> (
        match constrain_operand env op iv' with
        | None -> None
        | Some env -> (
            (* a boolean chipped down to a singleton follows its pred *)
            match (Interval.singleton iv', operand_is_bool body op) with
            | Some w', true -> refine_operand_int body env op w'
            | _ -> Some env))

  (* ---------------------------------------------------------------- *)
  (* Interprocedural context                                           *)

  type summary = { ret : value; eff : D.eff }

  type stats = {
    mutable iterations : int; (* block transfers executed *)
    mutable widenings : int;
    mutable max_visits : int; (* worst per-block visit count *)
    mutable summaries : int; (* callee contexts analyzed *)
  }

  (* (function, context key) pairs *)
  module Ids = Set.Make (struct
    type t = string * string

    let compare = compare
  end)

  (* A memoized summary and, in a context with a table, the (function,
     context) pairs its computation touched, its own included: what a
     context that reuses it must count against its budget. *)
  type entry = { summary : summary; ids : Ids.t }

  (* Summaries computed without a budget fallback or a recursion cut,
     transitively: each is a function of its (function, context) pair
     alone, whichever analysis computed it. *)
  type table = {
    entries : (string * string, entry) Hashtbl.t;
    mutable reruns : int; (* runs analyzed again without it *)
  }

  let create_table () = { entries = Hashtbl.create 128; reruns = 0 }

  (* Each entry is computed once: a later run finds it in the table. *)
  let table_summaries t = Hashtbl.length t.entries
  let table_reruns t = t.reruns

  type ctx = {
    program : Syn.program;
    prim : func:string -> args:value list -> (value * D.eff) option;
    max_contexts : int;
    memo : (string * string, entry) Hashtbl.t;
    contexts : (string, string list) Hashtbl.t; (* keys seen per function *)
    in_progress : (string * string, unit) Hashtbl.t;
    stats : stats;
    table : table option;
    mutable reads : (string * string, Ids.t) Hashtbl.t option;
        (* with a table: the entries the summary being computed read *)
  }

  let make_ctx ?(max_contexts = 8) ?table ~prim program =
    {
      program;
      prim;
      max_contexts;
      memo = Hashtbl.create 64;
      contexts = Hashtbl.create 16;
      in_progress = Hashtbl.create 16;
      stats = { iterations = 0; widenings = 0; max_visits = 0; summaries = 0 };
      table;
      reads = None;
    }

  let create_ctx ?max_contexts ~prim program = make_ctx ?max_contexts ~prim program
  let stats ctx = ctx.stats

  (* Raised, in a context with a table, at the first step whose result
     depends on what the context met before: a budget fallback or a
     recursion cut.  [run] then starts again without the table. *)
  exception Inexact

  let inexact ctx = if Option.is_some ctx.table then raise Inexact

  (* [e], read under [id] by the summary being computed. *)
  let read ctx id e =
    (match ctx.reads with Some r -> Hashtbl.replace r id e.ids | None -> ());
    e.summary

  (* The table's entry for [id], once every pair its computation touched
     is admitted into this context's budget, as computing it here would
     have added them. *)
  let reuse ctx id =
    match Option.bind ctx.table (fun t -> Hashtbl.find_opt t.entries id) with
    | None -> None
    | Some e ->
        Ids.iter
          (fun (func, key) ->
            let seen = try Hashtbl.find ctx.contexts func with Not_found -> [] in
            if not (List.mem key seen) then begin
              if List.length seen >= ctx.max_contexts then raise Inexact;
              Hashtbl.replace ctx.contexts func (key :: seen)
            end)
          e.ids;
        Hashtbl.replace ctx.memo id e;
        Some e

  type soln = { before : env option array }

  (* ---------------------------------------------------------------- *)
  (* Solver (mutually recursive with call summarization)               *)

  let rec summarize ctx func (args : value list) : summary option =
    match Syn.find_body ctx.program func with
    | None -> None
    | Some body ->
        let nparams = List.length body.Syn.params in
        let pad =
          List.init nparams (fun i ->
              match List.nth_opt args i with Some a -> a | None -> top_v)
        in
        let entry = List.mapi (fun i a -> map_leaves (D.label_arg i) a) pad in
        let key = String.concat ";" (List.map key_v entry) in
        let seen = try Hashtbl.find ctx.contexts func with Not_found -> [] in
        let key, entry =
          if List.mem key seen || List.length seen < ctx.max_contexts then
            (key, entry)
          else begin
            inexact ctx;
            (* context budget exhausted: fall back to the top context *)
            let entry = List.mapi (fun i _ -> Leaf (D.label_arg i D.top)) pad in
            (String.concat ";" (List.map key_v entry), entry)
          end
        in
        let id = (func, key) in
        (match Hashtbl.find_opt ctx.memo id with
        | Some e -> Some (read ctx id e)
        | None -> (
            if Hashtbl.mem ctx.in_progress id then begin
              inexact ctx;
              (* recursion: sound cycle cut *)
              Some { ret = top_v; eff = D.eff_top ~arity:nparams }
            end
            else
              match reuse ctx id with
              | Some e -> Some (read ctx id e)
              | None ->
                  Hashtbl.replace ctx.in_progress id ();
                  if not (List.mem key seen) then
                    Hashtbl.replace ctx.contexts func (key :: seen);
                  ctx.stats.summaries <- ctx.stats.summaries + 1;
                  let outer = ctx.reads in
                  if Option.is_some ctx.table then ctx.reads <- Some (Hashtbl.create 8);
                  let soln = solve ctx body ~entry in
                  let ret = return_value body soln in
                  let eff = effects ctx body soln in
                  let ids =
                    match ctx.reads with
                    | Some r ->
                        Hashtbl.fold (fun _ -> Ids.union) r (Ids.singleton id)
                    | None -> Ids.empty
                  in
                  ctx.reads <- outer;
                  Hashtbl.remove ctx.in_progress id;
                  let e = { summary = { ret; eff }; ids } in
                  Hashtbl.replace ctx.memo id e;
                  Option.iter (fun t -> Hashtbl.replace t.entries id e) ctx.table;
                  Some (read ctx id e)))

  (* Call result and effect in the caller's frame; [None] when [func]
     has no body here (primitive or unknown extern). *)
  and apply_call ctx func (args : value list) : (value * D.eff * bool) option =
    match summarize ctx func args with
    | None -> None
    | Some s ->
        let actuals = List.map collapse args in
        let ret = map_leaves (D.subst ~actuals) s.ret in
        let eff, secret_hit = D.subst_eff ~actuals s.eff in
        Some (ret, eff, secret_hit)

  and eval_call ctx env func args =
    let avs = List.map (eval_operand env) args in
    match ctx.prim ~func ~args:avs with
    | Some (ret, _) -> ret
    | None -> (
        match apply_call ctx func avs with
        | Some (ret, _, _) -> ret
        | None -> top_v)

  and out_edges ctx body env = function
    | Syn.Goto l -> [ (l, env) ]
    | Syn.Drop (_, l) -> [ (l, env) ]
    | Syn.Return | Syn.Unreachable -> []
    | Syn.Switch_int (op, cases, otherwise) -> (
        let case_edges =
          List.filter_map
            (fun (w, l) ->
              Option.map (fun e -> (l, e)) (refine_operand_int body env op w))
            cases
        in
        let other =
          List.fold_left
            (fun acc (w, _) ->
              Option.bind acc (fun e -> refine_operand_ne body e op w))
            (Some env) cases
        in
        match other with
        | Some e -> case_edges @ [ (otherwise, e) ]
        | None -> case_edges)
    | Syn.Assert { cond; expected; target; _ } -> (
        match refine_operand body env cond ~truth:expected with
        | Some e -> [ (target, e) ]
        | None -> [])
    | Syn.Call { dest; func; args; target } -> (
        match target with
        | None -> []
        | Some l ->
            let ret = eval_call ctx env func args in
            [ (l, write_place env dest ret) ])

  and transfer_block ctx body env (blk : Syn.block) =
    let env = List.fold_left (transfer_stmt body) env blk.Syn.stmts in
    out_edges ctx body env blk.Syn.term

  and solve ctx (body : Syn.body) ~entry : soln =
    let n = Array.length body.Syn.blocks in
    let thresholds = thresholds_of body in
    (* reverse postorder and retreating-edge targets *)
    let rpo = Array.make n max_int in
    let order = ref [] in
    let visited = Array.make n false in
    let rec dfs b =
      if b >= 0 && b < n && not visited.(b) then begin
        visited.(b) <- true;
        List.iter dfs (Cfg.successors body.Syn.blocks.(b).Syn.term);
        order := b :: !order
      end
    in
    if n > 0 then dfs 0;
    let order = Array.of_list !order in
    Array.iteri (fun i b -> rpo.(b) <- i) order;
    let is_loop_head = Array.make n false in
    Array.iteri
      (fun b (blk : Syn.block) ->
        if visited.(b) then
          List.iter
            (fun s ->
              if s >= 0 && s < n && rpo.(s) <= rpo.(b) then
                is_loop_head.(s) <- true)
            (Cfg.successors blk.Syn.term))
      body.Syn.blocks;
    let inenv : env option array = Array.make n None in
    let entry_env =
      let np = List.length body.Syn.params in
      List.fold_left2
        (fun env param v -> { env with vars = StrMap.add param v env.vars })
        env_empty body.Syn.params
        (List.init np (fun i ->
             match List.nth_opt entry i with Some v -> v | None -> top_v))
    in
    if n > 0 then inenv.(0) <- Some entry_env;
    let visits = Array.make n 0 in
    let module IS = Set.Make (Int) in
    (* worklist ordered by rpo number *)
    let wl = ref (if n > 0 then IS.singleton 0 else IS.empty) in
    let push b = if visited.(b) then wl := IS.add rpo.(b) !wl in
    let widen_delay = 2 in
    while not (IS.is_empty !wl) do
      let r = IS.min_elt !wl in
      wl := IS.remove r !wl;
      let b = order.(r) in
      match inenv.(b) with
      | None -> ()
      | Some env ->
          ctx.stats.iterations <- ctx.stats.iterations + 1;
          List.iter
            (fun (l, e) ->
              if l >= 0 && l < n then begin
                let next =
                  match inenv.(l) with
                  | None -> e
                  | Some old ->
                      let joined = join_env old e in
                      if is_loop_head.(l) && visits.(l) >= widen_delay then begin
                        ctx.stats.widenings <- ctx.stats.widenings + 1;
                        widen_env ~thresholds old joined
                      end
                      else joined
                in
                let changed =
                  match inenv.(l) with
                  | None -> true
                  | Some old -> not (equal_env old next)
                in
                if changed then begin
                  inenv.(l) <- Some next;
                  visits.(l) <- visits.(l) + 1;
                  if visits.(l) > ctx.stats.max_visits then
                    ctx.stats.max_visits <- visits.(l);
                  push l
                end
              end)
            (transfer_block ctx body env body.Syn.blocks.(b))
    done;
    (* narrowing: two decreasing sweeps in rpo order *)
    let preds = Cfg.predecessors body in
    for _ = 1 to 2 do
      Array.iter
        (fun b ->
          ctx.stats.iterations <- ctx.stats.iterations + 1;
          let contributions =
            List.concat_map
              (fun p ->
                match inenv.(p) with
                | None -> []
                | Some env ->
                    List.filter_map
                      (fun (l, e) -> if l = b then Some e else None)
                      (transfer_block ctx body env body.Syn.blocks.(p)))
              preds.(b)
          in
          let contributions =
            if b = 0 then entry_env :: contributions else contributions
          in
          match (inenv.(b), contributions) with
          | Some old, e :: rest ->
              inenv.(b) <- Some (narrow_env old (List.fold_left join_env e rest))
          | _ -> ())
        order
    done;
    { before = inenv }

  and return_value (body : Syn.body) (soln : soln) =
    let acc = ref None in
    Array.iteri
      (fun b (blk : Syn.block) ->
        match (blk.Syn.term, soln.before.(b)) with
        | Syn.Return, Some env ->
            let env = List.fold_left (transfer_stmt body) env blk.Syn.stmts in
            let v = read_var env Syn.return_var in
            acc := Some (match !acc with None -> v | Some a -> join_v a v)
        | _ -> ())
      body.Syn.blocks;
    match !acc with Some v -> v | None -> top_v

  (* Joined summary effect of the body under [soln]: primitive effects
     at their call sites plus substituted callee effects. *)
  and effects ctx (body : Syn.body) (soln : soln) =
    let acc = ref D.eff_bot in
    Array.iteri
      (fun b (blk : Syn.block) ->
        match soln.before.(b) with
        | None -> ()
        | Some env -> (
            let env = List.fold_left (transfer_stmt body) env blk.Syn.stmts in
            match blk.Syn.term with
            | Syn.Call { func; args; _ } -> (
                let avs = List.map (eval_operand env) args in
                match ctx.prim ~func ~args:avs with
                | Some (_, eff) -> acc := D.eff_join !acc eff
                | None -> (
                    match apply_call ctx func avs with
                    | Some (_, eff, _) -> acc := D.eff_join !acc eff
                    | None -> ()))
            | Syn.Goto _ | Syn.Switch_int _ | Syn.Return | Syn.Unreachable
            | Syn.Drop _ | Syn.Assert _ -> ()))
      body.Syn.blocks;
    !acc

  (* ---------------------------------------------------------------- *)
  (* Replay for clients: statements and terminators of reachable
     blocks with the stabilized environment in force at each point.   *)

  type visitor = {
    on_stmt : block:int -> idx:int -> env -> Syn.statement -> unit;
    on_term : block:int -> env -> Syn.terminator -> unit;
  }

  let visit (body : Syn.body) (soln : soln) (v : visitor) =
    Array.iteri
      (fun b (blk : Syn.block) ->
        match soln.before.(b) with
        | None -> ()
        | Some env ->
            let _, env =
              List.fold_left
                (fun (i, env) stmt ->
                  v.on_stmt ~block:b ~idx:i env stmt;
                  (i + 1, transfer_stmt body env stmt))
                (0, env) blk.Syn.stmts
            in
            v.on_term ~block:b env blk.Syn.term)
      body.Syn.blocks

  let analyze ctx func =
    match Syn.find_body ctx.program func with
    | None -> None
    | Some body ->
        let entry = List.map (fun _ -> top_v) body.Syn.params in
        Some (body, solve ctx body ~entry)

  (* With a table, [f] first runs on a context that reads and fills it,
     and is abandoned at its first [Inexact] step for a rerun on a fresh
     context without it; absint.mli says why a completed first run
     returns what the rerun would. *)
  let run ?table ~prim program f =
    let plain () =
      let ctx = make_ctx ~prim program in
      let r = f ctx in
      (r, ctx.stats)
    in
    match table with
    | None -> plain ()
    | Some t -> (
        let ctx = make_ctx ~table:t ~prim program in
        match f ctx with
        | r -> (r, ctx.stats)
        | exception Inexact ->
            t.reruns <- t.reruns + 1;
            let r, b = plain () in
            let a = ctx.stats in
            ( r,
              {
                iterations = a.iterations + b.iterations;
                widenings = a.widenings + b.widenings;
                max_visits = max a.max_visits b.max_visits;
                summaries = a.summaries + b.summaries;
              } ))
end
