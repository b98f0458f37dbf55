type 'abs t = {
  name : string;
  exports : 'abs Spec.t list;
  code : Mir.Syntax.body list;
}

let make ~name ~exports ~code = { name; exports; code }

type 'abs stack = 'abs t list

let find stack name = List.find_opt (fun l -> String.equal l.name name) stack

let below stack ~layer =
  let rec go acc = function
    | [] -> List.rev acc (* layer not found: treat as sitting on top *)
    | l :: _ when String.equal l.name layer -> List.rev acc
    | l :: rest -> go (l :: acc) rest
  in
  go [] stack

(* Later (higher) layers must shadow earlier ones; fold into a map. *)
module StrMap = Map.Make (String)

let overlay specs =
  List.fold_left (fun m (s : _ Spec.t) -> StrMap.add s.Spec.name s m) StrMap.empty specs
  |> StrMap.bindings |> List.map snd

let interface_below stack ~layer =
  overlay (List.concat_map (fun l -> l.exports) (below stack ~layer))

let env_for stack ~layer =
  let this =
    match find stack layer with
    | Some l -> l
    | None -> invalid_arg (Printf.sprintf "Layer.env_for: no layer %s" layer)
  in
  let prims = List.map Spec.to_prim (interface_below stack ~layer) in
  Mir.Interp.env ~prims (Mir.Syntax.program_of_bodies this.code)

let env_on_top stack =
  let prims =
    overlay (List.concat_map (fun l -> l.exports) stack) |> List.map Spec.to_prim
  in
  Mir.Interp.env ~prims (Mir.Syntax.program_of_bodies [])

type stratification_issue = {
  layer : string;
  body : string;
  callee : string;
  detail : string;
}

let pp_stratification_issue fmt i =
  Format.fprintf fmt "layer %s, fn %s calls %s: %s" i.layer i.body i.callee i.detail

let calls_of_body (body : Mir.Syntax.body) =
  Array.to_list body.blocks
  |> List.filter_map (fun (blk : Mir.Syntax.block) ->
         match blk.term with
         | Mir.Syntax.Call { func; _ } -> Some func
         | Mir.Syntax.Goto _ | Mir.Syntax.Switch_int _ | Mir.Syntax.Return
         | Mir.Syntax.Unreachable | Mir.Syntax.Drop _ | Mir.Syntax.Assert _ ->
             None)

let check_stratified stack =
  let issues = ref [] in
  List.iter
    (fun l ->
      let local_names =
        List.map (fun (b : Mir.Syntax.body) -> b.Mir.Syntax.fname) l.code
      in
      let lower =
        List.map (fun (s : _ Spec.t) -> s.Spec.name) (interface_below stack ~layer:l.name)
      in
      List.iter
        (fun (body : Mir.Syntax.body) ->
          List.iter
            (fun callee ->
              let ok =
                List.exists (String.equal callee) local_names
                || List.exists (String.equal callee) lower
              in
              if not ok then
                issues :=
                  {
                    layer = l.name;
                    body = body.Mir.Syntax.fname;
                    callee;
                    detail = "not a same-layer body nor a lower-layer export";
                  }
                  :: !issues)
            (calls_of_body body))
        l.code)
    stack;
  List.rev !issues
