let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

type cursor = { src : string; mutable off : int; mutable line : int; mutable col : int }

let at_end cur = cur.off >= String.length cur.src

(* The character [k] places ahead, '\000' past the end of the input.
   No token or comment delimiter holds a '\000', so a scan that stops
   on it stops at the end as well. *)
let char_at cur k =
  if cur.off + k < String.length cur.src then cur.src.[cur.off + k] else '\000'

let advance cur =
  if not (at_end cur) then
    if cur.src.[cur.off] = '\n' then begin
      cur.line <- cur.line + 1;
      cur.col <- 1
    end
    else cur.col <- cur.col + 1;
  cur.off <- cur.off + 1

let pos cur = { Token.line = cur.line; col = cur.col }

let error cur msg =
  Error (Format.asprintf "lex error at %a: %s" Token.pp_pos (pos cur) msg)

(* The punctuation token at [c], followed by [c2] ('\000' at the end of
   the input).  Every two-character token extends a one-character one,
   so matching the pair first is the longest match.  [""] when no token
   starts with [c]. *)
let punct c c2 =
  match (c, c2) with
  | '<', '<' -> "<<"
  | '>', '>' -> ">>"
  | '=', '=' -> "=="
  | '!', '=' -> "!="
  | '<', '=' -> "<="
  | '>', '=' -> ">="
  | '&', '&' -> "&&"
  | '|', '|' -> "||"
  | '-', '>' -> "->"
  | '=', '>' -> "=>"
  | ':', ':' -> "::"
  | '(', _ -> "("
  | ')', _ -> ")"
  | '{', _ -> "{"
  | '}', _ -> "}"
  | ',', _ -> ","
  | ';', _ -> ";"
  | ':', _ -> ":"
  | '.', _ -> "."
  | '=', _ -> "="
  | '<', _ -> "<"
  | '>', _ -> ">"
  | '+', _ -> "+"
  | '-', _ -> "-"
  | '*', _ -> "*"
  | '/', _ -> "/"
  | '%', _ -> "%"
  | '&', _ -> "&"
  | '|', _ -> "|"
  | '^', _ -> "^"
  | '!', _ -> "!"
  | '[', _ -> "["
  | ']', _ -> "]"
  | _ -> ""

let tokenize src =
  let cur = { src; off = 0; line = 1; col = 1 } in
  let out = ref [] in
  let push tok p = out := { Token.tok; pos = p } :: !out in
  let rec skip_block_comment depth =
    if depth = 0 then Ok ()
    else if at_end cur then error cur "unterminated block comment"
    else
      match (char_at cur 0, char_at cur 1) with
      | '*', '/' ->
          advance cur;
          advance cur;
          skip_block_comment (depth - 1)
      | '/', '*' ->
          advance cur;
          advance cur;
          skip_block_comment (depth + 1)
      | _ ->
          advance cur;
          skip_block_comment depth
  in
  let lex_int p =
    let start = cur.off in
    let hex =
      match (char_at cur 0, char_at cur 1) with
      | '0', ('x' | 'X') ->
          advance cur;
          advance cur;
          true
      | _ -> false
    in
    let digits = Buffer.create 8 in
    let rec go () =
      match char_at cur 0 with
      | c when (if hex then is_hex c else is_digit c) ->
          Buffer.add_char digits c;
          advance cur;
          go ()
      | '_' ->
          advance cur;
          go ()
      | _ -> ()
    in
    go ();
    if Buffer.length digits = 0 then
      error cur (Printf.sprintf "malformed integer literal at offset %d" start)
    else
      let text = (if hex then "0x" else "") ^ Buffer.contents digits in
      match Int64.of_string_opt (if hex then text else Buffer.contents digits) with
      | Some v ->
          push (Token.Int v) p;
          Ok ()
      | None -> error cur (Printf.sprintf "integer literal out of range: %s" text)
  in
  let lex_ident p =
    let start = cur.off in
    while is_ident (char_at cur 0) do
      advance cur
    done;
    let name = String.sub src start (cur.off - start) in
    push (if Token.is_keyword name then Token.Kw name else Token.Ident name) p;
    Ok ()
  in
  let lex_punct p =
    let c = char_at cur 0 in
    match punct c (char_at cur 1) with
    | "" -> error cur (Printf.sprintf "unexpected character %C" c)
    | s ->
        for _ = 1 to String.length s do
          advance cur
        done;
        push (Token.Punct s) p;
        Ok ()
  in
  let rec loop () =
    if at_end cur then begin
      push Token.Eof (pos cur);
      Ok (List.rev !out)
    end
    else
      match char_at cur 0 with
      | ' ' | '\t' | '\r' | '\n' ->
          advance cur;
          loop ()
      | '/' when char_at cur 1 = '/' ->
          while not (at_end cur || char_at cur 0 = '\n') do
            advance cur
          done;
          loop ()
      | '/' when char_at cur 1 = '*' ->
          advance cur;
          advance cur;
          Result.bind (skip_block_comment 1) (fun () -> loop ())
      | c when is_digit c -> Result.bind (lex_int (pos cur)) (fun () -> loop ())
      | c when is_ident_start c -> Result.bind (lex_ident (pos cur)) (fun () -> loop ())
      | _ -> Result.bind (lex_punct (pos cur)) (fun () -> loop ())
  in
  loop ()
