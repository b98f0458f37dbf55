type pos = { line : int; col : int }

let pp_pos fmt p = Format.fprintf fmt "%d:%d" p.line p.col

type t = Int of int64 | Ident of string | Kw of string | Punct of string | Eof

type spanned = { tok : t; pos : pos }

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Ident x, Ident y | Kw x, Kw y | Punct x, Punct y -> String.equal x y
  | Eof, Eof -> true
  | (Int _ | Ident _ | Kw _ | Punct _ | Eof), _ -> false

let pp fmt = function
  | Int i -> Format.fprintf fmt "%Ld" i
  | Ident s -> Format.pp_print_string fmt s
  | Kw s -> Format.pp_print_string fmt s
  | Punct s -> Format.pp_print_string fmt s
  | Eof -> Format.pp_print_string fmt "<eof>"

let to_string t = Format.asprintf "%a" pp t

(* One string match, not a scan of a keyword list: the lexer asks this
   of every identifier. *)
let is_keyword = function
  | "fn" | "let" | "mut" | "if" | "else" | "while" | "loop" | "break" | "continue"
  | "return" | "struct" | "enum" | "match" | "impl" | "const" | "extern" | "true"
  | "false" | "as" | "self" | "u64" | "usize" | "bool" ->
      true
  | _ -> false
