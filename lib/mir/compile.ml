(* Closure compilation for MIRlight.

   [Interp] re-walks the [Syntax] AST on every step: each statement
   re-resolves its places through [local_kind_of] (a linear scan of the
   declarations), each temp read goes through a [StrMap], and each
   block fetches statements with [List.nth].  That interpretive
   overhead dominates the code-proof phase, which executes the same
   fifty bodies against thousands of generated states.

   This module translates each [Syntax.body] once into a tree of OCaml
   closures: temps become integer-indexed slots in a [Value.t option
   array], basic blocks become arrays of pre-compiled statement
   closures plus one terminator closure, and every place/rvalue is
   pre-resolved down to the dynamic parts (Pindex reads, Deref).
   Compiled bodies are memoized per function, keyed by the function's
   MIRlight digest plus how its call sites resolve (primitive / body /
   undefined), so a shared [cache] compiles each body exactly once
   across environments — including the chaos-wrapped environments of
   [map_prims]-based fault injection, which change primitive behaviour
   but not primitive names.  A compiled body names its callees only by
   index: each environment links every body to its own primitives,
   stubs and bodies through one small table per body.

   [Interp] stays the reference semantics; [call] here must be
   observationally identical: same outcome fields (abs, mem, ret,
   steps), same frame-id assignment order (frame ids leak into [mem]
   through [Path.Local]), same fuel accounting, and the same error
   classification with byte-identical messages.  The differential
   suite in test/differential pins this. *)

module StrMap = Map.Make (String)

type 'abs cbody = {
  cb_name : string;
  cb_key : string; (* memoization key: digest of MIR text + call-site linkage *)
  cb_nslots : int;
  cb_callees : string array; (* distinct callees, in call-site order *)
  cb_bind : 'abs rt -> int -> 'abs link array -> 'abs Value.t list -> 'abs rframe;
  mutable cb_blocks : 'abs cblock array;
}

and 'abs cblock = {
  c_stmts : ('abs rt -> 'abs rframe -> unit) array;
  c_term : 'abs rt -> 'abs rframe -> 'abs jump;
}

and 'abs jump = Jgoto of int | Jret of 'abs Value.t

and 'abs rframe = {
  slots : 'abs Value.t array; (* valid iff the matching [init] bit is set *)
  init : bool array;
  frame_id : int;
  links : 'abs link array; (* the body's link table in the running environment *)
}

(* What one callee name resolves to in one environment.  A body's table
   holds one entry per [cb_callees] name, and a call site reads its
   callee's entry by index.  A callee body carries its own table. *)
and 'abs link =
  | Kprim of 'abs Interp.prim
  | Kstub of 'abs override
  | Kbody of 'abs cbody * 'abs link array
  | Knone

(* Mutable machine state threaded through every compiled closure.  One
   record per [call]; never shared across calls. *)
and 'abs rt = {
  mutable rt_mem : 'abs Mem.t;
  mutable rt_abs : 'abs;
  mutable rt_steps : int;
  mutable rt_budget : int;
  mutable rt_next_frame : int;
}

(* A specification stub installed over a body: call sites that resolve
   to an override execute [ov_exec] instead of entering the callee's
   body.  Unlike a primitive, the stub sees the object-view memory, so
   it can resolve pointer arguments (e.g. a method's [self]) to the
   pointee value the callee's by-value specification expects. *)
and 'abs override = {
  ov_name : string;
  ov_exec :
    'abs -> 'abs Mem.t -> 'abs Value.t list -> ('abs * 'abs Value.t, string) result;
}

(* Every body of the environment with its link table, by name. *)
type 'abs t = { ct_bodies : ('abs cbody * 'abs link array) StrMap.t }

(* A shared memo table: bodies compile once per digest+linkage key and
   are reused across environments (and across chaos-perturbed copies
   of the same environment). *)
type 'abs cache = (string, 'abs cbody) Hashtbl.t

let cache () = Hashtbl.create 64

exception Verr of Interp.error

(* Local error strings (the [Error msg] channel of [Interp]'s result
   plumbing) travel as an exception in compiled code, so the success
   path allocates no [Ok] boxes.  Each statement/terminator closure
   catches [Emsg] and rethrows it as the [Fault] of its own block. *)
exception Emsg of string

let fault fn block msg = raise (Verr (Interp.Fault { fn; block; msg }))

let ok_or_raise = function Ok v -> v | Error msg -> raise (Emsg msg)

(* Runtime lvalue: [Interp]'s lv with temps resolved to slot indices
   (the name is kept for error messages only). *)
type 'abs rlv =
  | Rtemp of int * string * Path.proj list
  | Rmem of Path.t
  | Rtrusted of 'abs Value.trusted * Path.proj list

let rlv_extend lv proj =
  match lv with
  | Rtemp (i, v, ps) -> Rtemp (i, v, ps @ [ proj ])
  | Rmem p -> Rmem (Path.extend p proj)
  | Rtrusted (t, ps) -> Rtrusted (t, ps @ [ proj ])

let read_rlv (st : 'abs rt) (fr : 'abs rframe) = function
  | Rtemp (i, v, projs) ->
      if not fr.init.(i) then
        raise (Emsg (Printf.sprintf "read of uninitialized temporary %s" v));
      let value = fr.slots.(i) in
      (match projs with [] -> value | _ -> ok_or_raise (Value.project_many value projs))
  | Rmem path -> ok_or_raise (Mem.read st.rt_mem path)
  | Rtrusted (t, projs) ->
      let value = ok_or_raise (t.Value.tp_load st.rt_abs) in
      (match projs with [] -> value | _ -> ok_or_raise (Value.project_many value projs))

let write_rlv (st : 'abs rt) (fr : 'abs rframe) lv v =
  match lv with
  | Rtemp (i, _, []) ->
      fr.slots.(i) <- v;
      fr.init.(i) <- true
  | Rtemp (i, var, projs) ->
      if not fr.init.(i) then
        raise
          (Emsg (Printf.sprintf "projection write into uninitialized temporary %s" var));
      fr.slots.(i) <- ok_or_raise (Value.update fr.slots.(i) projs v)
  | Rmem path -> st.rt_mem <- ok_or_raise (Mem.write st.rt_mem path v)
  | Rtrusted (t, []) -> st.rt_abs <- ok_or_raise (t.Value.tp_store st.rt_abs v)
  | Rtrusted (t, projs) ->
      let old = ok_or_raise (t.Value.tp_load st.rt_abs) in
      let updated = ok_or_raise (Value.update old projs v) in
      st.rt_abs <- ok_or_raise (t.Value.tp_store st.rt_abs updated)

(* ------------------------------------------------------------------ *)
(* Compile-time resolution of variables                                *)

type vkind = Vtemp of int * string | Vlocal of string | Vundecl of string

type denv = {
  d_body : Syntax.body;
  d_vars : vkind StrMap.t; (* every declared local, temps carrying slot index *)
}

let denv_of_body (body : Syntax.body) =
  let _, vars =
    List.fold_left
      (fun (slot, m) (d : Syntax.local_decl) ->
        match d.Syntax.lkind with
        | Syntax.Ktemp -> (slot + 1, StrMap.add d.Syntax.lname (Vtemp (slot, d.Syntax.lname)) m)
        | Syntax.Klocal -> (slot, StrMap.add d.Syntax.lname (Vlocal d.Syntax.lname) m))
      (0, StrMap.empty) body.Syntax.locals
  in
  { d_body = body; d_vars = vars }

let nslots (body : Syntax.body) =
  List.fold_left
    (fun n (d : Syntax.local_decl) ->
      match d.Syntax.lkind with Syntax.Ktemp -> n + 1 | Syntax.Klocal -> n)
    0 body.Syntax.locals

let vkind_of denv var =
  match StrMap.find_opt var denv.d_vars with
  | Some k -> k
  | None -> Vundecl var

let undeclared denv var =
  Printf.sprintf "undeclared variable %s in %s" var denv.d_body.Syntax.fname

(* Base lvalue for a variable; [Vlocal] depends on the dynamic frame id. *)
let compile_var denv var : 'abs rt -> 'abs rframe -> 'abs rlv =
  match vkind_of denv var with
  | Vtemp (i, name) ->
      let lv = Rtemp (i, name, []) in
      fun _ _ -> lv
  | Vlocal name -> fun _ fr -> Rmem (Path.local ~frame:fr.frame_id name)
  | Vundecl _ ->
      let msg = undeclared denv var in
      fun _ _ -> raise (Emsg msg)

(* Reading a variable (Pindex, bare-temp operands).  The fast path —
   a bare temp — is one array load and one bit test. *)
let compile_read_var denv var : 'abs rt -> 'abs rframe -> 'abs Value.t =
  match vkind_of denv var with
  | Vtemp (i, name) ->
      let miss = Printf.sprintf "read of uninitialized temporary %s" name in
      fun _ fr ->
        if fr.init.(i) then fr.slots.(i) else raise (Emsg miss)
  | Vlocal name ->
      fun st fr -> ok_or_raise (Mem.read st.rt_mem (Path.local ~frame:fr.frame_id name))
  | Vundecl _ ->
      let msg = undeclared denv var in
      fun _ _ -> raise (Emsg msg)

(* ------------------------------------------------------------------ *)
(* Places                                                              *)

type 'abs cplace = 'abs rt -> 'abs rframe -> 'abs rlv

let static_elem = function
  | Syntax.Pfield _ | Syntax.Pconst_index _ | Syntax.Downcast _ -> true
  | Syntax.Pindex _ | Syntax.Deref -> false

let static_projs elems =
  List.filter_map
    (function
      | Syntax.Pfield i -> Some (Path.Field i)
      | Syntax.Pconst_index i -> Some (Path.Index i)
      | Syntax.Downcast _ | Syntax.Pindex _ | Syntax.Deref -> None)
    elems

let compile_elem denv (elem : Syntax.place_elem) :
    'abs rt -> 'abs rframe -> 'abs rlv -> 'abs rlv =
  match elem with
  | Syntax.Pfield i -> fun _ _ lv -> rlv_extend lv (Path.Field i)
  | Syntax.Pconst_index i -> fun _ _ lv -> rlv_extend lv (Path.Index i)
  | Syntax.Downcast _ -> fun _ _ lv -> lv
  | Syntax.Pindex var ->
      let read = compile_read_var denv var in
      fun st fr lv ->
        let w, _ = ok_or_raise (Value.as_word (read st fr)) in
        rlv_extend lv (Path.Index (Word.to_int w))
  | Syntax.Deref ->
      fun st fr lv -> (
        match ok_or_raise (Value.as_ptr (read_rlv st fr lv)) with
        | Value.Concrete path -> Rmem path
        | Value.Trusted t -> Rtrusted (t, [])
        | Value.Rdata r ->
            raise
              (Emsg
                 (Printf.sprintf
                    "dereference of RData handle %s.%s: pointee is encapsulated in layer %s"
                    r.Value.rd_layer r.Value.rd_name r.Value.rd_layer)))

let compile_place denv (place : Syntax.place) : 'abs cplace =
  if List.for_all static_elem place.Syntax.elems then
    (* Fully static access path: the projection list is a compile-time
       constant, so the whole lvalue is prebuilt (temps) or built with
       one allocation (locals need the dynamic frame id). *)
    let projs = static_projs place.Syntax.elems in
    match vkind_of denv place.Syntax.var with
    | Vtemp (i, name) ->
        let lv = Rtemp (i, name, projs) in
        fun _ _ -> lv
    | Vlocal name ->
        fun _ fr -> Rmem { Path.base = Path.Local (fr.frame_id, name); projs }
    | Vundecl _ ->
        let msg = undeclared denv place.Syntax.var in
        fun _ _ -> raise (Emsg msg)
  else
    let base = compile_var denv place.Syntax.var in
    let steps = Array.of_list (List.map (compile_elem denv) place.Syntax.elems) in
    let n = Array.length steps in
    fun st fr ->
      let lv = ref (base st fr) in
      for i = 0 to n - 1 do
        lv := steps.(i) st fr !lv
      done;
      !lv

(* ------------------------------------------------------------------ *)
(* Operands and rvalues                                                *)

type 'abs coperand = 'abs rt -> 'abs rframe -> 'abs Value.t

let compile_operand denv (op : Syntax.operand) : 'abs coperand =
  match op with
  | Syntax.Const c ->
      let v = Eval.constant c in
      fun _ _ -> v
  | Syntax.Copy { Syntax.var; elems = [] } | Syntax.Move { Syntax.var; elems = [] } ->
      compile_read_var denv var
  | Syntax.Copy place | Syntax.Move place ->
      let cp = compile_place denv place in
      fun st fr -> read_rlv st fr (cp st fr)

let compile_operands denv ops : 'abs rt -> 'abs rframe -> 'abs Value.t list =
  match List.map (compile_operand denv) ops with
  | [] -> fun _ _ -> []
  | [ c0 ] -> fun st fr -> [ c0 st fr ]
  | [ c0; c1 ] ->
      fun st fr ->
        let v0 = c0 st fr in
        let v1 = c1 st fr in
        [ v0; v1 ]
  | cops ->
      let cops = Array.of_list cops in
      let n = Array.length cops in
      fun st fr ->
        let rec go i acc =
          if i >= n then List.rev acc else go (i + 1) (cops.(i) st fr :: acc)
        in
        go 0 []

let compile_rvalue denv (rv : Syntax.rvalue) : 'abs rt -> 'abs rframe -> 'abs Value.t =
  match rv with
  | Syntax.Use op -> compile_operand denv op
  | Syntax.Repeat (op, n) ->
      let cop = compile_operand denv op in
      fun st fr -> Value.Arr (Array.make n (cop st fr))
  | Syntax.Ref place | Syntax.Address_of place ->
      let cp = compile_place denv place in
      fun st fr -> (
        match cp st fr with
        | Rmem path -> Value.Ptr (Value.Concrete path)
        | Rtrusted (t, []) -> Value.Ptr (Value.Trusted t)
        | Rtrusted (_, _ :: _) ->
            raise (Emsg "reference into the interior of a trusted pointee")
        | Rtemp (_, v, _) ->
            raise
              (Emsg
                 (Printf.sprintf
                    "taking the address of temporary %s (translator should have \
                     classified it as local)" v)))
  | Syntax.Len place ->
      let cp = compile_place denv place in
      fun st fr -> (
        match read_rlv st fr (cp st fr) with
        | Value.Arr elems -> Value.usize (Array.length elems)
        | _ -> raise (Emsg "Len of non-array value"))
  | Syntax.Cast (op, ity) ->
      let cop = compile_operand denv op in
      fun st fr -> ok_or_raise (Eval.cast (cop st fr) ity)
  | Syntax.Binary (bop, a, b) ->
      let ca = compile_operand denv a and cb = compile_operand denv b in
      fun st fr ->
        let va = ca st fr in
        let vb = cb st fr in
        ok_or_raise (Eval.binary bop va vb)
  | Syntax.Checked_binary (bop, a, b) ->
      let ca = compile_operand denv a and cb = compile_operand denv b in
      fun st fr ->
        let va = ca st fr in
        let vb = cb st fr in
        ok_or_raise (Eval.checked_binary bop va vb)
  | Syntax.Unary (uop, a) ->
      let ca = compile_operand denv a in
      fun st fr -> ok_or_raise (Eval.unary uop (ca st fr))
  | Syntax.Discriminant place ->
      let cp = compile_place denv place in
      fun st fr ->
        let d = ok_or_raise (Value.discriminant (read_rlv st fr (cp st fr))) in
        Value.int Ty.U64 d
  | Syntax.Aggregate (kind, ops) ->
      let cops = compile_operands denv ops in
      let build =
        match kind with
        | Syntax.Agg_tuple | Syntax.Agg_struct _ -> fun vs -> Value.Struct (0, vs)
        | Syntax.Agg_variant (_, d) -> fun vs -> Value.Struct (d, vs)
        | Syntax.Agg_array -> fun vs -> Value.Arr (Array.of_list vs)
      in
      fun st fr -> build (cops st fr)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let compile_statement denv ~fn ~blk (stmt : Syntax.statement) :
    'abs rt -> 'abs rframe -> unit =
  match stmt with
  | Syntax.Nop | Syntax.Storage_live _ | Syntax.Storage_dead _ -> fun _ _ -> ()
  | Syntax.Assign (place, rv) ->
      let crv = compile_rvalue denv rv in
      let cp = compile_place denv place in
      fun st fr -> (
        try
          let v = crv st fr in
          let lv = cp st fr in
          write_rlv st fr lv v
        with Emsg msg -> fault fn blk msg)
  | Syntax.Set_discriminant (place, d) ->
      let cp = compile_place denv place in
      fun st fr -> (
        try
          let lv = cp st fr in
          let _, fields = ok_or_raise (Value.as_fields (read_rlv st fr lv)) in
          write_rlv st fr lv (Value.Struct (d, fields))
        with Emsg msg -> fault fn blk msg)

(* ------------------------------------------------------------------ *)
(* The machine driver                                                  *)

let tick st =
  if st.rt_budget <= 0 then raise (Verr Interp.Out_of_fuel);
  st.rt_budget <- st.rt_budget - 1;
  st.rt_steps <- st.rt_steps + 1

let rec exec_body (st : 'abs rt) (cb : 'abs cbody) (fr : 'abs rframe) : 'abs Value.t =
  let blocks = cb.cb_blocks in
  let nblocks = Array.length blocks in
  let rec go blk =
    if blk < 0 || blk >= nblocks then begin
      (* [Interp] only discovers a bad jump target on the next step,
         after that step's fuel check, so fuel exhaustion wins *)
      if st.rt_budget <= 0 then raise (Verr Interp.Out_of_fuel);
      fault cb.cb_name blk (Printf.sprintf "jump to undefined block bb%d" blk)
    end
    else begin
      let b = blocks.(blk) in
      let stmts = b.c_stmts in
      for i = 0 to Array.length stmts - 1 do
        tick st;
        stmts.(i) st fr
      done;
      tick st;
      match b.c_term st fr with Jgoto l -> go l | Jret v -> v
    end
  in
  go 0

(* Enter a body: allocate the frame and run it.  Binding errors raise
   [Emsg] and fault at the call site (in the caller). *)
and enter_body (st : 'abs rt) (cb : 'abs cbody) links args : 'abs Value.t =
  let fid = st.rt_next_frame in
  st.rt_next_frame <- fid + 1;
  exec_body st cb (cb.cb_bind st fid links args)

(* ------------------------------------------------------------------ *)
(* Terminators                                                         *)

(* Call-site linkage, decided per environment from its override-name
   set, primitive-name set and body-name set.  It is part of a body's
   memo key, and it picks each entry of the body's link table, so a
   memoized body works under any environment with the same linkage
   shape (chaos-wrapped primitives keep their names, so they hit the
   same cache entry) and runs that environment's closures.  Overrides
   shadow both primitives and bodies: a call site linked to a [Kstub]
   executes the callee's specification stub instead of its body. *)
type linkage = Lprim | Lbody | Loverride | Lundef

let compile_return denv : 'abs rt -> 'abs rframe -> 'abs jump =
  (* a body that never assigns _0 (or leaves it undefined) returns () *)
  match vkind_of denv Syntax.return_var with
  | Vtemp (i, _) ->
      fun _ fr -> if fr.init.(i) then Jret fr.slots.(i) else Jret Value.Unit
  | Vlocal name ->
      fun st fr -> (
        match Mem.read st.rt_mem (Path.local ~frame:fr.frame_id name) with
        | Ok v -> Jret v
        | Error _ -> Jret Value.Unit)
  | Vundecl _ -> fun _ _ -> Jret Value.Unit

let compile_terminator denv ~callee_index ~fn ~blk (term : Syntax.terminator) :
    'abs rt -> 'abs rframe -> 'abs jump =
  match term with
  | Syntax.Goto l | Syntax.Drop (_, l) ->
      let j = Jgoto l in
      fun _ _ -> j
  | Syntax.Return -> compile_return denv
  | Syntax.Unreachable -> fun _ _ -> fault fn blk "reached Unreachable terminator"
  | Syntax.Switch_int (op, cases, otherwise) ->
      let cop = compile_operand denv op in
      let cases = Array.of_list cases in
      let n = Array.length cases in
      fun st fr ->
        let key =
          try ok_or_raise (Eval.switch_key (cop st fr))
          with Emsg msg -> fault fn blk msg
        in
        let rec pick i =
          if i >= n then otherwise
          else
            let w, l = cases.(i) in
            if Word.equal w key then l else pick (i + 1)
        in
        Jgoto (pick 0)
  | Syntax.Assert { cond; expected; msg; target } ->
      let cop = compile_operand denv cond in
      let j = Jgoto target in
      fun st fr ->
        let b =
          try ok_or_raise (Value.as_bool (cop st fr))
          with Emsg m -> fault fn blk m
        in
        if Bool.equal b expected then j
        else raise (Verr (Interp.Assert_failed { fn; block = blk; msg }))
  | Syntax.Call { dest; func; args; target } ->
      let i = callee_index func in
      let cargs = compile_operands denv args in
      let cdest = compile_place denv dest in
      let store_result st fr ret = write_rlv st fr (cdest st fr) ret in
      fun st fr -> (
        try
          let argv = cargs st fr in
          match fr.links.(i) with
          | Kprim prim -> (
              match prim.Interp.prim_exec st.rt_abs argv with
              | Error msg -> raise (Emsg (Printf.sprintf "primitive %s: %s" func msg))
              | Ok (abs, ret) -> (
                  match target with
                  | None -> raise (Emsg "call of primitive with no return target")
                  | Some l ->
                      st.rt_abs <- abs;
                      store_result st fr ret;
                      Jgoto l))
          | Kstub ov -> (
              (* like a primitive call (one terminator tick, no callee
                 frame), but the stub additionally reads the object-view
                 memory so pointer arguments resolve to pointee values *)
              match ov.ov_exec st.rt_abs st.rt_mem argv with
              | Error msg -> raise (Emsg (Printf.sprintf "override %s: %s" func msg))
              | Ok (abs, ret) -> (
                  match target with
                  | None -> raise (Emsg "call of override with no return target")
                  | Some l ->
                      st.rt_abs <- abs;
                      store_result st fr ret;
                      Jgoto l))
          | Kbody (cb, links) -> (
              let ret = enter_body st cb links argv in
              match target with
              | None -> raise (Emsg "return to caller without destination")
              | Some l ->
                  store_result st fr ret;
                  Jgoto l)
          | Knone -> raise (Emsg (Printf.sprintf "call of undefined function %s" func))
        with Emsg msg -> fault fn blk msg)

(* ------------------------------------------------------------------ *)
(* Bodies                                                              *)

(* Argument binding, mirroring [Interp.bind_args]: parameters are
   consumed left to right, and the arity-mismatch message reports the
   counts *remaining* at the point of mismatch. *)
let compile_bind (body : Syntax.body) denv =
  let binders =
    Array.of_list
      (List.map
         (fun p ->
           match vkind_of denv p with
           | Vtemp (i, _) -> `Slot i
           | Vlocal name -> `Local name
           | Vundecl name -> `Undecl name)
         body.Syntax.params)
  in
  let fname = body.Syntax.fname in
  let nslots = nslots body in
  let nparams = Array.length binders in
  fun (st : 'abs rt) fid links (args : 'abs Value.t list) ->
    let fr =
      {
        slots = Array.make nslots Value.Unit;
        init = Array.make nslots false;
        frame_id = fid;
        links;
      }
    in
    let rec go i args =
      if i >= nparams then (
        match args with
        | [] -> fr
        | _ ->
            raise
              (Emsg
                 (Printf.sprintf
                    "arity mismatch calling %s: %d parameters, %d arguments" fname 0
                    (List.length args))))
      else
        match args with
        | [] ->
            raise
              (Emsg
                 (Printf.sprintf
                    "arity mismatch calling %s: %d parameters, %d arguments" fname
                    (nparams - i) 0))
        | a :: rest -> (
            match binders.(i) with
            | `Slot s ->
                fr.slots.(s) <- a;
                fr.init.(s) <- true;
                go (i + 1) rest
            | `Local name ->
                st.rt_mem <- Mem.define (Path.Local (fid, name)) a st.rt_mem;
                go (i + 1) rest
            | `Undecl name ->
                raise (Emsg (Printf.sprintf "parameter %s not declared" name)))
    in
    go 0 args

(* The memoization key must capture everything the generated closures
   depend on: the MIR text of the body and the linkage of each call
   site (whether the callee resolves to a primitive, a body, or
   nothing in this environment). *)
let linkage_char = function Lprim -> 'p' | Lbody -> 'b' | Loverride -> 'o' | Lundef -> 'u'

let body_key (body : Syntax.body) ~linkage_of =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Pp.body_to_string body);
  Buffer.add_string buf "\x00linkage:";
  Array.iter
    (fun (blk : Syntax.block) ->
      match blk.Syntax.term with
      | Syntax.Call { func; _ } ->
          Buffer.add_string buf func;
          Buffer.add_char buf '=';
          Buffer.add_char buf (linkage_char (linkage_of func));
          Buffer.add_char buf ';'
      | _ -> ())
    body.Syntax.blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The body's distinct callees, in the order its call sites first name
   them: the shape of its link table in every environment. *)
let callees_of (body : Syntax.body) =
  Array.fold_left
    (fun acc (blk : Syntax.block) ->
      match blk.Syntax.term with
      | Syntax.Call { func; _ } when not (List.mem func acc) -> func :: acc
      | _ -> acc)
    [] body.Syntax.blocks
  |> List.rev |> Array.of_list

let compile_body (body : Syntax.body) ~key : 'abs cbody =
  let denv = denv_of_body body in
  let callees = callees_of body in
  let index =
    snd (Array.fold_left (fun (i, m) f -> (i + 1, StrMap.add f i m)) (0, StrMap.empty) callees)
  in
  let callee_index func = StrMap.find func index in
  let cb =
    {
      cb_name = body.Syntax.fname;
      cb_key = key;
      cb_nslots = nslots body;
      cb_callees = callees;
      cb_bind = compile_bind body denv;
      cb_blocks = [||];
    }
  in
  let fn = body.Syntax.fname in
  cb.cb_blocks <-
    Array.mapi
      (fun blk (b : Syntax.block) ->
        {
          c_stmts =
            Array.of_list (List.map (compile_statement denv ~fn ~blk) b.Syntax.stmts);
          c_term = compile_terminator denv ~callee_index ~fn ~blk b.Syntax.term;
        })
      body.Syntax.blocks;
  cb

let compile ?cache ?(overrides = []) (env : 'abs Interp.env) : 'abs t =
  let prog = Interp.env_program env in
  let prims =
    List.fold_left
      (fun m (p : 'abs Interp.prim) -> StrMap.add p.Interp.prim_name p m)
      StrMap.empty (Interp.env_prims env)
  in
  let ovs =
    List.fold_left
      (fun m (ov : 'abs override) -> StrMap.add ov.ov_name ov m)
      StrMap.empty overrides
  in
  let linkage_of func =
    if StrMap.mem func ovs then Loverride (* spec stubs shadow everything *)
    else if StrMap.mem func prims then Lprim (* primitives shadow bodies *)
    else if Option.is_some (Syntax.find_body prog func) then Lbody
    else Lundef
  in
  let compile_one (body : Syntax.body) =
    let key = body_key body ~linkage_of in
    match cache with
    | None -> compile_body body ~key
    | Some c -> (
        match Hashtbl.find_opt c key with
        | Some cb -> cb
        | None ->
            let cb = compile_body body ~key in
            Hashtbl.add c key cb;
            cb)
  in
  (* every table is allocated before any is filled, so a (mutually)
     recursive call links to its callee's table *)
  let bodies =
    Syntax.fold_bodies
      (fun name body m ->
        let cb = compile_one body in
        StrMap.add name (cb, Array.make (Array.length cb.cb_callees) Knone) m)
      prog StrMap.empty
  in
  StrMap.iter
    (fun _ (cb, links) ->
      Array.iteri
        (fun i func ->
          links.(i) <-
            (match linkage_of func with
            | Loverride -> Kstub (StrMap.find func ovs)
            | Lprim -> Kprim (StrMap.find func prims)
            | Lbody ->
                let callee, callee_links = StrMap.find func bodies in
                Kbody (callee, callee_links)
            | Lundef -> Knone))
        cb.cb_callees)
    bodies;
  { ct_bodies = bodies }

(* ------------------------------------------------------------------ *)
(* Entry point: observationally identical to [Interp.call]             *)

let call ?(fuel = Interp.default_fuel) (ct : 'abs t) ~abs ~mem fn args :
    ('abs Interp.outcome, Interp.error) result =
  match StrMap.find_opt fn ct.ct_bodies with
  | None -> Error (Interp.Fault { fn; block = 0; msg = "no such function" })
  | Some (cb, links) -> (
      let st =
        {
          rt_mem = mem;
          rt_abs = abs;
          rt_steps = 0;
          rt_budget = fuel;
          rt_next_frame = 0;
        }
      in
      try
        (* the toplevel frame is bound before any fuel is consumed, and
           its binding errors fault in [fn] at bb0, exactly like
           [Interp.start] *)
        let ret = try enter_body st cb links args with Emsg msg -> fault fn 0 msg in
        Ok { Interp.abs = st.rt_abs; mem = st.rt_mem; ret; steps = st.rt_steps }
      with Verr e -> Error e)
