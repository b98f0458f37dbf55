type t = int64

type width = W8 | W16 | W32 | W64

let bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let mask = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFF_FFFFL
  | W64 -> 0xFFFF_FFFF_FFFF_FFFFL

let norm w x = Int64.logand x (mask w)

let zero = 0L
let one = 1L

let of_int w i = norm w (Int64.of_int i)

let to_int x =
  if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int max_int) > 0 then
    invalid_arg (Printf.sprintf "Word.to_int: %Ld out of OCaml int range" x)
  else Int64.to_int x

let add w a b = norm w (Int64.add a b)
let sub w a b = norm w (Int64.sub a b)
let mul w a b = norm w (Int64.mul a b)

let div w a b = if Int64.equal b 0L then None else Some (norm w (Int64.unsigned_div a b))
let rem w a b = if Int64.equal b 0L then None else Some (norm w (Int64.unsigned_rem a b))

let logand = Int64.logand
let logor = Int64.logor
let logxor = Int64.logxor
let lognot w x = norm w (Int64.lognot x)

let shift_left w x n = if n >= 64 || n < 0 then 0L else norm w (Int64.shift_left x n)

let shift_right _w x n =
  if n >= 64 || n < 0 then 0L else Int64.shift_right_logical x n

let equal = Int64.equal
let compare_u = Int64.unsigned_compare
let lt_u a b = compare_u a b < 0
let le_u a b = compare_u a b <= 0

let bit x i = not (Int64.equal (Int64.logand (Int64.shift_right_logical x i) 1L) 0L)

let set_bit x i b =
  let m = Int64.shift_left 1L i in
  if b then Int64.logor x m else Int64.logand x (Int64.lognot m)

let extract x ~lo ~len =
  if len <= 0 then 0L
  else
    let shifted = Int64.shift_right_logical x lo in
    if len >= 64 then shifted
    else Int64.logand shifted (Int64.sub (Int64.shift_left 1L len) 1L)

let insert x ~lo ~len f =
  if len <= 0 then x
  else
    let field_mask =
      if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L
    in
    let cleared = Int64.logand x (Int64.lognot (Int64.shift_left field_mask lo)) in
    Int64.logor cleared (Int64.shift_left (Int64.logand f field_mask) lo)

(* The bytes of [Printf.sprintf "0x%Lx" x], built from the two 32-bit
   halves as native ints. *)
let to_hex x =
  let hi = Int64.to_int (Int64.shift_right_logical x 32) in
  let lo = Int64.to_int x land 0xFFFF_FFFF in
  let rec nibbles v n = if v = 0 then n else nibbles (v lsr 4) (n + 1) in
  let len = if hi = 0 then Int.max 1 (nibbles lo 0) else 8 + nibbles hi 0 in
  let b = Bytes.create (len + 2) in
  Bytes.unsafe_set b 0 '0';
  Bytes.unsafe_set b 1 'x';
  for i = 0 to len - 1 do
    let d = if i < 8 then lo lsr (4 * i) else hi lsr (4 * (i - 8)) in
    Bytes.unsafe_set b (len + 1 - i) "0123456789abcdef".[d land 15]
  done;
  Bytes.unsafe_to_string b

let pp fmt x = Format.pp_print_string fmt (to_hex x)

(* Unsigned 64-bit overflow predicates and saturating arithmetic: the
   transfer hooks the abstract interpreter (lib/analysis) evaluates
   MIRlight arithmetic with.  All treat the word as a full 64-bit
   unsigned value (the widths the stack computes in). *)

let umax = 0xFFFF_FFFF_FFFF_FFFFL

let min_u a b = if le_u a b then a else b
let max_u a b = if le_u a b then b else a

let add_overflows a b = lt_u (Int64.add a b) a

let mul_overflows a b =
  (not (Int64.equal a 0L))
  && (not (Int64.equal b 0L))
  && not (Int64.equal (Int64.unsigned_div (Int64.mul a b) b) a)

let add_sat a b = if add_overflows a b then umax else Int64.add a b
let sub_sat a b = if lt_u a b then 0L else Int64.sub a b
let mul_sat a b = if mul_overflows a b then umax else Int64.mul a b
