type int_ty = U8 | U16 | U32 | U64 | Usize | I32 | I64

let width = function
  | U8 -> Word.W8
  | U16 -> Word.W16
  | U32 | I32 -> Word.W32
  | U64 | Usize | I64 -> Word.W64

let signed = function I32 | I64 -> true | U8 | U16 | U32 | U64 | Usize -> false

let int_ty_equal (a : int_ty) (b : int_ty) = a = b

let int_ty_to_string = function
  | U8 -> "u8"
  | U16 -> "u16"
  | U32 -> "u32"
  | U64 -> "u64"
  | Usize -> "usize"
  | I32 -> "i32"
  | I64 -> "i64"

let pp_int_ty fmt ty = Format.pp_print_string fmt (int_ty_to_string ty)

type t =
  | Int of int_ty
  | Bool
  | Unit
  | Tuple of t list
  | Adt of string
  | Ref of t
  | Array of t * int
  | Raw of t
  | Opaque of string

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> int_ty_equal x y
  | Bool, Bool | Unit, Unit -> true
  | Tuple xs, Tuple ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Adt x, Adt y | Opaque x, Opaque y -> String.equal x y
  | Ref x, Ref y | Raw x, Raw y -> equal x y
  | Array (x, n), Array (y, m) -> n = m && equal x y
  | (Int _ | Bool | Unit | Tuple _ | Adt _ | Ref _ | Array _ | Raw _ | Opaque _), _
    ->
      false

let rec add_to_buffer b = function
  | Int ity -> Buffer.add_string b (int_ty_to_string ity)
  | Bool -> Buffer.add_string b "bool"
  | Unit -> Buffer.add_string b "()"
  | Tuple ts ->
      Buffer.add_char b '(';
      List.iteri
        (fun i t ->
          if i > 0 then Buffer.add_string b ", ";
          add_to_buffer b t)
        ts;
      Buffer.add_char b ')'
  | Adt name -> Buffer.add_string b name
  | Ref t ->
      Buffer.add_char b '&';
      add_to_buffer b t
  | Array (t, n) ->
      Buffer.add_char b '[';
      add_to_buffer b t;
      Buffer.add_string b "; ";
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b ']'
  | Raw t ->
      Buffer.add_string b "*mut ";
      add_to_buffer b t
  | Opaque name ->
      Buffer.add_string b "opaque<";
      Buffer.add_string b name;
      Buffer.add_char b '>'

let to_string t =
  let b = Buffer.create 16 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
