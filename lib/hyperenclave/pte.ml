module Word = Mir.Word

let empty = Word.zero

(* Address field: bits page_shift .. 56 (57-bit physical space). *)
let addr_len (g : Geometry.t) = 57 - g.page_shift

let make (g : Geometry.t) ~pa f =
  let page_number = Word.extract pa ~lo:g.page_shift ~len:(addr_len g) in
  let e = Word.insert Word.zero ~lo:g.page_shift ~len:(addr_len g) page_number in
  Word.logor e (Flags.encode g f)

let addr (g : Geometry.t) e =
  Word.shift_left Word.W64
    (Word.extract e ~lo:g.page_shift ~len:(addr_len g))
    g.page_shift

let flags (g : Geometry.t) e = Flags.decode g e
let is_present (g : Geometry.t) e = Word.bit e g.fb_present
let is_huge (g : Geometry.t) e = Word.bit e g.fb_huge

let pp g fmt e =
  Format.fprintf fmt "pte{%a %a}" Word.pp (addr g e) Flags.pp (flags g e)
