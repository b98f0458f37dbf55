(* The layout is fixed: a body's locals and blocks sit at indent 2 and a
   block's statements at indent 4, one item per line, so the text is
   built straight into a [Buffer].  The bytes are part of every body
   digest, and so of the pinned proof-cache keys: changing one re-keys
   the cache. *)

let str = Buffer.add_string
let chr = Buffer.add_char
let int b i = str b (string_of_int i)

let sep_list b f xs =
  List.iteri
    (fun i x ->
      if i > 0 then str b ", ";
      f b x)
    xs

let place b (p : Syntax.place) =
  (* Derefs print as prefix stars, other projections as suffixes. *)
  List.iter (function Syntax.Deref -> chr b '*' | _ -> ()) p.elems;
  str b p.var;
  List.iter
    (function
      | Syntax.Deref -> ()
      | Syntax.Pfield i ->
          chr b '.';
          int b i
      | Syntax.Pindex v ->
          chr b '[';
          str b v;
          chr b ']'
      | Syntax.Pconst_index i ->
          chr b '[';
          int b i;
          chr b ']'
      | Syntax.Downcast d ->
          str b " as variant#";
          int b d)
    p.elems

let constant b = function
  | Syntax.Cint (w, ity) ->
      str b "const ";
      str b (Printf.sprintf "%Lu" w);
      chr b '_';
      str b (Ty.int_ty_to_string ity)
  | Syntax.Cbool v ->
      str b "const ";
      str b (string_of_bool v)
  | Syntax.Cunit -> str b "const ()"
  | Syntax.Cfn f ->
      str b "const fn ";
      str b f

let operand b = function
  | Syntax.Copy p -> place b p
  | Syntax.Move p ->
      str b "move ";
      place b p
  | Syntax.Const c -> constant b c

let bin_op_symbol = function
  | Syntax.Add -> "Add"
  | Syntax.Sub -> "Sub"
  | Syntax.Mul -> "Mul"
  | Syntax.Div -> "Div"
  | Syntax.Rem -> "Rem"
  | Syntax.Bit_and -> "BitAnd"
  | Syntax.Bit_or -> "BitOr"
  | Syntax.Bit_xor -> "BitXor"
  | Syntax.Shl -> "Shl"
  | Syntax.Shr -> "Shr"
  | Syntax.Eq -> "Eq"
  | Syntax.Ne -> "Ne"
  | Syntax.Lt -> "Lt"
  | Syntax.Le -> "Le"
  | Syntax.Gt -> "Gt"
  | Syntax.Ge -> "Ge"

(* [name(a)] and [name(a, b)] *)
let call1 b name pr x =
  str b name;
  chr b '(';
  pr b x;
  chr b ')'

let call2 b name x y =
  str b name;
  chr b '(';
  operand b x;
  str b ", ";
  operand b y;
  chr b ')'

let rvalue b = function
  | Syntax.Use op -> operand b op
  | Syntax.Repeat (op, n) ->
      chr b '[';
      operand b op;
      str b "; ";
      int b n;
      chr b ']'
  | Syntax.Ref p ->
      str b "&mut ";
      place b p
  | Syntax.Address_of p ->
      str b "&raw mut ";
      place b p
  | Syntax.Len p -> call1 b "Len" place p
  | Syntax.Cast (op, ity) ->
      operand b op;
      str b " as ";
      str b (Ty.int_ty_to_string ity)
  | Syntax.Binary (op, x, y) -> call2 b (bin_op_symbol op) x y
  | Syntax.Checked_binary (op, x, y) -> call2 b ("Checked" ^ bin_op_symbol op) x y
  | Syntax.Unary (Syntax.Not, x) -> call1 b "Not" operand x
  | Syntax.Unary (Syntax.Neg, x) -> call1 b "Neg" operand x
  | Syntax.Discriminant p -> call1 b "discriminant" place p
  | Syntax.Aggregate (kind, ops) -> (
      match kind with
      | Syntax.Agg_tuple ->
          chr b '(';
          sep_list b operand ops;
          chr b ')'
      | Syntax.Agg_struct name ->
          str b name;
          str b " { ";
          sep_list b operand ops;
          str b " }"
      | Syntax.Agg_variant (name, d) ->
          str b name;
          str b "::variant#";
          int b d;
          chr b '(';
          sep_list b operand ops;
          chr b ')'
      | Syntax.Agg_array ->
          chr b '[';
          sep_list b operand ops;
          chr b ']')

let statement b = function
  | Syntax.Assign (p, rv) ->
      place b p;
      str b " = ";
      rvalue b rv;
      chr b ';'
  | Syntax.Set_discriminant (p, d) ->
      call1 b "discriminant" place p;
      str b " = ";
      int b d;
      chr b ';'
  | Syntax.Storage_live v ->
      call1 b "StorageLive" str v;
      chr b ';'
  | Syntax.Storage_dead v ->
      call1 b "StorageDead" str v;
      chr b ';'
  | Syntax.Nop -> str b "nop;"

let goto b l =
  str b " -> bb";
  int b l;
  chr b ';'

let terminator b = function
  | Syntax.Goto l ->
      str b "goto";
      goto b l
  | Syntax.Switch_int (op, cases, otherwise) ->
      call1 b "switchInt" operand op;
      str b " -> [";
      sep_list b
        (fun b (w, l) ->
          str b (Printf.sprintf "%Lu" w);
          str b ": bb";
          int b l)
        cases;
      str b ", otherwise: bb";
      int b otherwise;
      str b "];"
  | Syntax.Return -> str b "return;"
  | Syntax.Unreachable -> str b "unreachable;"
  | Syntax.Drop (p, l) ->
      call1 b "drop" place p;
      goto b l
  | Syntax.Call { dest; func; args; target } -> (
      place b dest;
      str b " = ";
      str b func;
      chr b '(';
      sep_list b operand args;
      chr b ')';
      match target with Some l -> goto b l | None -> str b " -> diverge;")
  | Syntax.Assert { cond; expected; msg; target } ->
      str b "assert(";
      operand b cond;
      str b " == ";
      str b (string_of_bool expected);
      str b ", ";
      str b (Printf.sprintf "%S" msg);
      chr b ')';
      goto b target

let local_decl b (d : Syntax.local_decl) =
  str b (match d.lkind with Syntax.Klocal -> "let local " | Syntax.Ktemp -> "let temp ");
  str b d.lname;
  str b ": ";
  Ty.add_to_buffer b d.lty;
  chr b ';'

(* Every line break is followed by the next line's indent, so an empty
   line between the locals and the first block holds two spaces. *)
let body b (fb : Syntax.body) =
  str b "fn ";
  str b fb.fname;
  chr b '(';
  sep_list b str fb.params;
  str b ") {\n  ";
  List.iter
    (fun d ->
      local_decl b d;
      str b "\n  ")
    fb.locals;
  Array.iteri
    (fun i (blk : Syntax.block) ->
      str b "\n  bb";
      int b i;
      str b ": {\n    ";
      List.iter
        (fun s ->
          statement b s;
          str b "\n    ")
        blk.stmts;
      terminator b blk.term;
      str b "\n  }")
    fb.blocks;
  str b "\n}"

let body_to_string fb =
  let b = Buffer.create 1024 in
  body b fb;
  Buffer.contents b

let program_to_string prog =
  let b = Buffer.create 65536 in
  Syntax.fold_bodies
    (fun _ fb () ->
      if Buffer.length b > 0 then chr b '\n';
      body b fb;
      chr b '\n')
    prog ();
  Buffer.contents b
