type pending_block = {
  mutable stmts_rev : Syntax.statement list;
  mutable term : Syntax.terminator option;
}

type t = {
  name : string;
  params : string list;
  mutable locals_rev : Syntax.local_decl list;
  mutable blocks : pending_block array;
  mutable cur : Syntax.label;
  mutable fresh : int;
}

let new_block () = { stmts_rev = []; term = None }

let create ~name ~params ~ret_ty =
  let ret_decl =
    { Syntax.lname = Syntax.return_var; lty = ret_ty; lkind = Syntax.Ktemp }
  in
  let param_decls =
    List.map
      (fun (p, ty, kind) -> { Syntax.lname = p; lty = ty; lkind = kind })
      params
  in
  {
    name;
    params = List.map (fun (p, _, _) -> p) params;
    locals_rev = List.rev (ret_decl :: param_decls);
    blocks = [| new_block () |];
    cur = 0;
    fresh = 0;
  }

let declare b kind ?name ty =
  let name =
    match name with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "_t%d" b.fresh in
        b.fresh <- b.fresh + 1;
        n
  in
  b.locals_rev <- { Syntax.lname = name; lty = ty; lkind = kind } :: b.locals_rev;
  name

let temp b ?name ty = declare b Syntax.Ktemp ?name ty
let local b ?name ty = declare b Syntax.Klocal ?name ty

let fresh_block b =
  let label = Array.length b.blocks in
  b.blocks <- Array.append b.blocks [| new_block () |];
  label

let current b = b.cur

let switch_to b label =
  if label < 0 || label >= Array.length b.blocks then
    invalid_arg (Printf.sprintf "Builder.switch_to: unknown block bb%d" label);
  b.cur <- label

let push b stmt =
  let blk = b.blocks.(b.cur) in
  (match blk.term with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Builder.push: block bb%d of %s already terminated" b.cur b.name)
  | None -> ());
  blk.stmts_rev <- stmt :: blk.stmts_rev

let assign b place rv = push b (Syntax.Assign (place, rv))
let assign_var b var rv = assign b (Syntax.place_of_var var) rv

let terminate b term =
  let blk = b.blocks.(b.cur) in
  match blk.term with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Builder.terminate: block bb%d of %s already terminated"
           b.cur b.name)
  | None -> blk.term <- Some term

let finish b =
  let blocks =
    Array.mapi
      (fun i blk ->
        match blk.term with
        | None ->
            invalid_arg
              (Printf.sprintf "Builder.finish: block bb%d of %s not terminated" i b.name)
        | Some term -> { Syntax.stmts = List.rev blk.stmts_rev; term })
      b.blocks
  in
  {
    Syntax.fname = b.name;
    params = b.params;
    locals = List.rev b.locals_rev;
    blocks;
  }

let pvar var = Syntax.place_of_var var

let extend (p : Syntax.place) elem = { p with Syntax.elems = p.Syntax.elems @ [ elem ] }

let pfield p i = extend p (Syntax.Pfield i)
let pindex p var = extend p (Syntax.Pindex var)
let pderef p = extend p Syntax.Deref
let pdowncast p d = extend p (Syntax.Downcast d)

let copy var = Syntax.Copy (pvar var)
let copy_place p = Syntax.Copy p
let move var = Syntax.Move (pvar var)
let cword ity w = Syntax.Const (Syntax.Cint (Word.norm (Ty.width ity) w, ity))
let cint ity i = cword ity (Word.of_int (Ty.width ity) i)
let cu64 i = cint Ty.U64 i
let cbool bv = Syntax.Const (Syntax.Cbool bv)
let cunit = Syntax.Const Syntax.Cunit
