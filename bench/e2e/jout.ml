(* JSON text with every float at full precision: [Engine.Jsonx] prints
   six significant digits, too few for a timing measured to the
   microsecond. *)

module Jsonx = Engine.Jsonx

let float_text f =
  if not (Float.is_finite f) then "null"
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Jsonx.Float f -> Buffer.add_string buf (float_text f)
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "\"%s\": " (Jsonx.escape k);
          emit buf v)
        kvs;
      Buffer.add_char buf '}'
  | scalar -> Buffer.add_string buf (Jsonx.to_string scalar)

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

let number = function
  | Some (Jsonx.Float f) -> f
  | Some (Jsonx.Int i) -> float_of_int i
  | _ -> 0.0

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (Jsonx.member k)) (Some j) path
