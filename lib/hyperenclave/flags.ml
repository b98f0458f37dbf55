module Word = Mir.Word

type t = { present : bool; write : bool; user : bool; huge : bool }

let none = { present = false; write = false; user = false; huge = false }
let present_r = { none with present = true }
let present_rw = { present_r with write = true }
let user_rw = { present_rw with user = true }
let user_r = { present_r with user = true }
let with_huge f = { f with huge = true }

let encode (g : Geometry.t) f =
  let w = Word.zero in
  let w = Word.set_bit w g.fb_present f.present in
  let w = Word.set_bit w g.fb_write f.write in
  let w = Word.set_bit w g.fb_user f.user in
  Word.set_bit w g.fb_huge f.huge

let decode (g : Geometry.t) w =
  {
    present = Word.bit w g.fb_present;
    write = Word.bit w g.fb_write;
    user = Word.bit w g.fb_user;
    huge = Word.bit w g.fb_huge;
  }

let equal a b =
  Bool.equal a.present b.present && Bool.equal a.write b.write
  && Bool.equal a.user b.user && Bool.equal a.huge b.huge

let to_string f =
  let b = Bytes.make 4 '-' in
  if f.present then Bytes.set b 0 'P';
  if f.write then Bytes.set b 1 'W';
  if f.user then Bytes.set b 2 'U';
  if f.huge then Bytes.set b 3 'H';
  Bytes.unsafe_to_string b

let pp fmt f = Format.pp_print_string fmt (to_string f)

let all =
  let bools = [ false; true ] in
  List.concat_map
    (fun present ->
      List.concat_map
        (fun write ->
          List.concat_map
            (fun user -> List.map (fun huge -> { present; write; user; huge }) bools)
            bools)
        bools)
    bools
