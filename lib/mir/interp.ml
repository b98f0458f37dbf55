module StrMap = Map.Make (String)

type 'abs prim = {
  prim_name : string;
  prim_exec : 'abs -> 'abs Value.t list -> ('abs * 'abs Value.t, string) result;
}

type 'abs env = { prog : Syntax.program; prims : 'abs prim StrMap.t }

let env ~prims prog =
  let prims =
    List.fold_left (fun acc p -> StrMap.add p.prim_name p acc) StrMap.empty prims
  in
  { prog; prims }

let env_prims e = List.map snd (StrMap.bindings e.prims)
let env_program e = e.prog
let map_prims f e = { e with prims = StrMap.map f e.prims }

type error =
  | Fault of { fn : string; block : Syntax.label; msg : string }
  | Assert_failed of { fn : string; block : Syntax.label; msg : string }
  | Out_of_fuel

let pp_error fmt = function
  | Fault { fn; block; msg } ->
      Format.fprintf fmt "fault in %s (bb%d): %s" fn block msg
  | Assert_failed { fn; block; msg } ->
      Format.fprintf fmt "assertion failed in %s (bb%d): %s" fn block msg
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"

let error_to_string e = Format.asprintf "%a" pp_error e

type 'abs outcome = {
  abs : 'abs;
  mem : 'abs Mem.t;
  ret : 'abs Value.t;
  steps : int;
}

type 'abs frame = {
  body : Syntax.body;
  frame_id : int;
  temps : 'abs Value.t StrMap.t;
  dest : Syntax.place option;  (* where the caller stores our result *)
  cont : Syntax.label option;  (* caller's continuation block *)
}

type control = { blk : Syntax.label; idx : int }

type 'abs config = {
  cenv : 'abs env;
  mem : 'abs Mem.t;
  abs : 'abs;
  stack : ('abs frame * control) list;  (* head = active frame *)
  next_frame : int;
  steps : int;
}

type 'abs status = Running of 'abs config | Finished of 'abs outcome

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Place resolution                                                    *)

type 'abs lv =
  | Ltemp of string * Path.proj list
  | Lmem of Path.t
  | Ltrusted of 'abs Value.trusted * Path.proj list

let lv_extend lv proj =
  match lv with
  | Ltemp (v, ps) -> Ltemp (v, ps @ [ proj ])
  | Lmem p -> Lmem (Path.extend p proj)
  | Ltrusted (t, ps) -> Ltrusted (t, ps @ [ proj ])

let read_lv frame mem abs lv =
  match lv with
  | Ltemp (v, projs) -> (
      match StrMap.find_opt v frame.temps with
      | None -> Error (Printf.sprintf "read of uninitialized temporary %s" v)
      | Some value -> Value.project_many value projs)
  | Lmem path -> Mem.read mem path
  | Ltrusted (t, projs) ->
      let* value = t.tp_load abs in
      Value.project_many value projs

let write_lv frame mem abs lv v =
  match lv with
  | Ltemp (var, []) ->
      Ok ({ frame with temps = StrMap.add var v frame.temps }, mem, abs)
  | Ltemp (var, projs) -> (
      match StrMap.find_opt var frame.temps with
      | None ->
          Error (Printf.sprintf "projection write into uninitialized temporary %s" var)
      | Some old ->
          let* updated = Value.update old projs v in
          Ok ({ frame with temps = StrMap.add var updated frame.temps }, mem, abs))
  | Lmem path ->
      let* mem = Mem.write mem path v in
      Ok (frame, mem, abs)
  | Ltrusted (t, []) ->
      let* abs = t.tp_store abs v in
      Ok (frame, mem, abs)
  | Ltrusted (t, projs) ->
      let* old = t.tp_load abs in
      let* updated = Value.update old projs v in
      let* abs = t.tp_store abs updated in
      Ok (frame, mem, abs)

let var_lv frame var =
  match Syntax.local_kind_of frame.body var with
  | Some Syntax.Ktemp -> Ok (Ltemp (var, []))
  | Some Syntax.Klocal -> Ok (Lmem (Path.local ~frame:frame.frame_id var))
  | None -> Error (Printf.sprintf "undeclared variable %s in %s" var frame.body.fname)

let read_var frame mem abs var =
  let* lv = var_lv frame var in
  read_lv frame mem abs lv

let resolve_place frame mem abs (place : Syntax.place) =
  let* start = var_lv frame place.var in
  let step lv (elem : Syntax.place_elem) =
    match elem with
    | Syntax.Pfield i -> Ok (lv_extend lv (Path.Field i))
    | Syntax.Pconst_index i -> Ok (lv_extend lv (Path.Index i))
    | Syntax.Pindex var ->
        let* idx_value = read_var frame mem abs var in
        let* w, _ = Value.as_word idx_value in
        Ok (lv_extend lv (Path.Index (Word.to_int w)))
    | Syntax.Downcast _ ->
        (* In the object view the variant payload is the field list
           itself; the downcast is a static annotation. *)
        Ok lv
    | Syntax.Deref -> (
        let* pointer_value = read_lv frame mem abs lv in
        let* p = Value.as_ptr pointer_value in
        match p with
        | Value.Concrete path -> Ok (Lmem path)
        | Value.Trusted t -> Ok (Ltrusted (t, []))
        | Value.Rdata r ->
            Error
              (Printf.sprintf
                 "dereference of RData handle %s.%s: pointee is encapsulated in layer %s"
                 r.rd_layer r.rd_name r.rd_layer))
  in
  List.fold_left
    (fun acc elem -> match acc with Error _ as e -> e | Ok lv -> step lv elem)
    (Ok start) place.elems

(* ------------------------------------------------------------------ *)
(* Operand and rvalue evaluation                                       *)

let eval_operand frame mem abs (op : Syntax.operand) =
  match op with
  | Syntax.Copy place | Syntax.Move place ->
      let* lv = resolve_place frame mem abs place in
      read_lv frame mem abs lv
  | Syntax.Const c -> Ok (Eval.constant c)

let eval_operands frame mem abs ops =
  List.fold_left
    (fun acc op ->
      let* vs = acc in
      let* v = eval_operand frame mem abs op in
      Ok (v :: vs))
    (Ok []) ops
  |> Result.map List.rev

let eval_rvalue frame mem abs (rv : Syntax.rvalue) =
  match rv with
  | Syntax.Use op -> eval_operand frame mem abs op
  | Syntax.Repeat (op, n) ->
      let* v = eval_operand frame mem abs op in
      Ok (Value.Arr (Array.make n v))
  | Syntax.Ref place | Syntax.Address_of place -> (
      let* lv = resolve_place frame mem abs place in
      match lv with
      | Lmem path -> Ok (Value.Ptr (Value.Concrete path))
      | Ltrusted (t, []) -> Ok (Value.Ptr (Value.Trusted t))
      | Ltrusted (_, _ :: _) ->
          Error "reference into the interior of a trusted pointee"
      | Ltemp (v, _) ->
          Error
            (Printf.sprintf
               "taking the address of temporary %s (translator should have \
                classified it as local)" v))
  | Syntax.Len place -> (
      let* lv = resolve_place frame mem abs place in
      let* v = read_lv frame mem abs lv in
      match v with
      | Value.Arr elems -> Ok (Value.usize (Array.length elems))
      | _ -> Error "Len of non-array value")
  | Syntax.Cast (op, ity) ->
      let* v = eval_operand frame mem abs op in
      Eval.cast v ity
  | Syntax.Binary (bop, a, b) ->
      let* va = eval_operand frame mem abs a in
      let* vb = eval_operand frame mem abs b in
      Eval.binary bop va vb
  | Syntax.Checked_binary (bop, a, b) ->
      let* va = eval_operand frame mem abs a in
      let* vb = eval_operand frame mem abs b in
      Eval.checked_binary bop va vb
  | Syntax.Unary (uop, a) ->
      let* va = eval_operand frame mem abs a in
      Eval.unary uop va
  | Syntax.Discriminant place ->
      let* lv = resolve_place frame mem abs place in
      let* v = read_lv frame mem abs lv in
      let* d = Value.discriminant v in
      Ok (Value.int Ty.U64 d)
  | Syntax.Aggregate (kind, ops) ->
      let* vs = eval_operands frame mem abs ops in
      (match kind with
      | Syntax.Agg_tuple | Syntax.Agg_struct _ -> Ok (Value.Struct (0, vs))
      | Syntax.Agg_variant (_, d) -> Ok (Value.Struct (d, vs))
      | Syntax.Agg_array -> Ok (Value.Arr (Array.of_list vs)))

(* ------------------------------------------------------------------ *)
(* The machine                                                         *)

let fault frame control msg =
  Error (Fault { fn = frame.body.Syntax.fname; block = control.blk; msg })

let current_block frame control =
  let blocks = frame.body.Syntax.blocks in
  if control.blk < 0 || control.blk >= Array.length blocks then
    fault frame control (Printf.sprintf "jump to undefined block bb%d" control.blk)
  else Ok blocks.(control.blk)

let bind_args body frame_id temps0 mem0 params args =
  let rec go temps mem params args =
    match (params, args) with
    | [], [] -> Ok (temps, mem)
    | p :: ps, a :: rest -> (
        match Syntax.local_kind_of body p with
        | Some Syntax.Ktemp -> go (StrMap.add p a temps) mem ps rest
        | Some Syntax.Klocal ->
            go temps (Mem.define (Path.Local (frame_id, p)) a mem) ps rest
        | None -> Error (Printf.sprintf "parameter %s not declared" p))
    | _ ->
        Error
          (Printf.sprintf "arity mismatch calling %s: %d parameters, %d arguments"
             body.Syntax.fname (List.length params) (List.length args))
  in
  go temps0 mem0 params args

let make_frame body frame_id mem args ~dest ~cont =
  let frame = { body; frame_id; temps = StrMap.empty; dest; cont } in
  let* temps, mem =
    bind_args body frame_id frame.temps mem body.Syntax.params args
  in
  Ok ({ frame with temps }, mem)

let start envr ~abs ~mem fn args =
  match Syntax.find_body envr.prog fn with
  | None -> Error (Fault { fn; block = 0; msg = "no such function" })
  | Some body -> (
      match make_frame body 0 mem args ~dest:None ~cont:None with
      | Error msg -> Error (Fault { fn; block = 0; msg })
      | Ok (frame, mem) ->
          Ok
            {
              cenv = envr;
              mem;
              abs;
              stack = [ (frame, { blk = 0; idx = 0 }) ];
              next_frame = 1;
              steps = 0;
            })

(* Reading the return slot: a body that never assigns _0 returns (). *)
let read_return frame mem abs =
  match var_lv frame Syntax.return_var with
  | Error _ -> Ok Value.Unit
  | Ok lv -> (
      match read_lv frame mem abs lv with
      | Ok v -> Ok v
      | Error _ -> Ok Value.Unit)

let exec_statement cfg frame control stmt rest_stack =
  let continue frame mem abs =
    Ok
      (Running
         {
           cfg with
           mem;
           abs;
           stack = (frame, { control with idx = control.idx + 1 }) :: rest_stack;
           steps = cfg.steps + 1;
         })
  in
  match stmt with
  | Syntax.Nop | Syntax.Storage_live _ | Syntax.Storage_dead _ ->
      continue frame cfg.mem cfg.abs
  | Syntax.Assign (place, rv) -> (
      match eval_rvalue frame cfg.mem cfg.abs rv with
      | Error msg -> fault frame control msg
      | Ok v -> (
          match resolve_place frame cfg.mem cfg.abs place with
          | Error msg -> fault frame control msg
          | Ok lv -> (
              match write_lv frame cfg.mem cfg.abs lv v with
              | Error msg -> fault frame control msg
              | Ok (frame, mem, abs) -> continue frame mem abs)))
  | Syntax.Set_discriminant (place, d) -> (
      match resolve_place frame cfg.mem cfg.abs place with
      | Error msg -> fault frame control msg
      | Ok lv -> (
          match read_lv frame cfg.mem cfg.abs lv with
          | Error msg -> fault frame control msg
          | Ok v -> (
              match Value.as_fields v with
              | Error msg -> fault frame control msg
              | Ok (_, fields) -> (
                  match write_lv frame cfg.mem cfg.abs lv (Value.Struct (d, fields)) with
                  | Error msg -> fault frame control msg
                  | Ok (frame, mem, abs) -> continue frame mem abs))))

let do_return cfg frame rest_stack =
  match read_return frame cfg.mem cfg.abs with
  | Error msg -> fault frame { blk = 0; idx = 0 } msg
  | Ok ret -> (
      match rest_stack with
      | [] ->
          Ok
            (Finished
               { abs = cfg.abs; mem = cfg.mem; ret; steps = cfg.steps + 1 })
      | (caller, caller_control) :: deeper -> (
          match (frame.dest, frame.cont) with
          | Some dest, Some cont_label -> (
              match resolve_place caller cfg.mem cfg.abs dest with
              | Error msg -> fault caller caller_control msg
              | Ok lv -> (
                  match write_lv caller cfg.mem cfg.abs lv ret with
                  | Error msg -> fault caller caller_control msg
                  | Ok (caller, mem, abs) ->
                      Ok
                        (Running
                           {
                             cfg with
                             mem;
                             abs;
                             stack = (caller, { blk = cont_label; idx = 0 }) :: deeper;
                             steps = cfg.steps + 1;
                           })))
          | _ -> fault caller caller_control "return to caller without destination"))

let exec_call cfg frame control rest_stack ~dest ~func ~args ~target =
  match eval_operands frame cfg.mem cfg.abs args with
  | Error msg -> fault frame control msg
  | Ok argv -> (
      (* Primitives (lower-layer specifications) shadow bodies. *)
      match StrMap.find_opt func cfg.cenv.prims with
      | Some prim -> (
          match prim.prim_exec cfg.abs argv with
          | Error msg ->
              fault frame control (Printf.sprintf "primitive %s: %s" func msg)
          | Ok (abs, ret) -> (
              match target with
              | None -> fault frame control "call of primitive with no return target"
              | Some l -> (
                  match resolve_place frame cfg.mem abs dest with
                  | Error msg -> fault frame control msg
                  | Ok lv -> (
                      match write_lv frame cfg.mem abs lv ret with
                      | Error msg -> fault frame control msg
                      | Ok (frame, mem, abs) ->
                          Ok
                            (Running
                               {
                                 cfg with
                                 mem;
                                 abs;
                                 stack = (frame, { blk = l; idx = 0 }) :: rest_stack;
                                 steps = cfg.steps + 1;
                               })))))
      | None -> (
          match Syntax.find_body cfg.cenv.prog func with
          | None -> fault frame control (Printf.sprintf "call of undefined function %s" func)
          | Some body -> (
              match
                make_frame body cfg.next_frame cfg.mem argv ~dest:(Some dest)
                  ~cont:target
              with
              | Error msg -> fault frame control msg
              | Ok (callee, mem) ->
                  Ok
                    (Running
                       {
                         cfg with
                         mem;
                         stack =
                           (callee, { blk = 0; idx = 0 })
                           :: (frame, control)
                           :: rest_stack;
                         next_frame = cfg.next_frame + 1;
                         steps = cfg.steps + 1;
                       }))))

let exec_terminator cfg frame control term rest_stack =
  let goto l =
    Ok
      (Running
         {
           cfg with
           stack = (frame, { blk = l; idx = 0 }) :: rest_stack;
           steps = cfg.steps + 1;
         })
  in
  match term with
  | Syntax.Goto l -> goto l
  | Syntax.Drop (_, l) -> goto l
  | Syntax.Return -> do_return cfg frame rest_stack
  | Syntax.Unreachable -> fault frame control "reached Unreachable terminator"
  | Syntax.Switch_int (op, cases, otherwise) -> (
      match eval_operand frame cfg.mem cfg.abs op with
      | Error msg -> fault frame control msg
      | Ok v -> (
          match Eval.switch_key v with
          | Error msg -> fault frame control msg
          | Ok key ->
              let target =
                List.find_opt (fun (w, _) -> Word.equal w key) cases
                |> Option.fold ~none:otherwise ~some:snd
              in
              goto target))
  | Syntax.Assert { cond; expected; msg; target } -> (
      match eval_operand frame cfg.mem cfg.abs cond with
      | Error m -> fault frame control m
      | Ok v -> (
          match Value.as_bool v with
          | Error m -> fault frame control m
          | Ok b ->
              if Bool.equal b expected then goto target
              else
                Error
                  (Assert_failed
                     { fn = frame.body.Syntax.fname; block = control.blk; msg })))
  | Syntax.Call { dest; func; args; target } ->
      exec_call cfg frame control rest_stack ~dest ~func ~args ~target

let step cfg =
  match cfg.stack with
  | [] -> Error (Fault { fn = "<toplevel>"; block = 0; msg = "step on finished machine" })
  | (frame, control) :: rest_stack -> (
      match current_block frame control with
      | Error _ as e -> e
      | Ok block ->
          let nstmts = List.length block.Syntax.stmts in
          if control.idx < nstmts then
            exec_statement cfg frame control (List.nth block.Syntax.stmts control.idx) rest_stack
          else exec_terminator cfg frame control block.Syntax.term rest_stack)

let config_depth cfg = List.length cfg.stack

let config_function cfg =
  match cfg.stack with
  | [] -> None
  | (frame, _) :: _ -> Some frame.body.Syntax.fname

let config_block cfg =
  match cfg.stack with [] -> None | (_, control) :: _ -> Some control.blk

let default_fuel = 1_000_000

let call ?(fuel = default_fuel) envr ~abs ~mem fn args =
  let* cfg0 = start envr ~abs ~mem fn args in
  let rec loop cfg budget =
    if budget <= 0 then Error Out_of_fuel
    else
      let* st = step cfg in
      match st with Finished outcome -> Ok outcome | Running cfg' -> loop cfg' (budget - 1)
  in
  loop cfg0 fuel
