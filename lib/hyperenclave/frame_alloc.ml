(* The bitmap in the code's own 64-bit words: bit [i mod 64] of word
   [i / 64] is set iff frame [i] is allocated, and bits at or beyond
   [nframes] are always clear.  The bytes are never written once a
   value is returned: every update copies them first. *)
type t = { nframes : int; bits : Bytes.t }

let nwords nframes = (nframes + 63) / 64

let create ~nframes =
  if nframes <= 0 then invalid_arg "Frame_alloc.create: need at least one frame";
  { nframes; bits = Bytes.make (8 * nwords nframes) '\000' }

let nframes a = a.nframes
let bitmap_words a = nwords a.nframes
let word a w = Bytes.get_int64_le a.bits (8 * w)
let bit_set v b = not (Int64.equal (Int64.logand v (Int64.shift_left 1L b)) 0L)

let with_word a w v =
  let bits = Bytes.copy a.bits in
  Bytes.set_int64_le bits (8 * w) v;
  { a with bits }

let alloc a =
  let rec find w =
    if w >= bitmap_words a then Error "frame pool exhausted"
    else
      let v = word a w in
      if Int64.equal v (-1L) then find (w + 1)
      else
        let rec clear b = if bit_set v b then clear (b + 1) else b in
        let b = clear 0 in
        let i = (64 * w) + b in
        (* bits beyond the pool are clear: the lowest one ends it *)
        if i >= a.nframes then Error "frame pool exhausted"
        else Ok (with_word a w (Int64.logor v (Int64.shift_left 1L b)), i)
  in
  find 0

let is_allocated a i = i >= 0 && i < a.nframes && bit_set (word a (i / 64)) (i mod 64)

let free a i =
  if i < 0 || i >= a.nframes then
    Error (Printf.sprintf "free of out-of-range frame %d" i)
  else if not (is_allocated a i) then
    Error (Printf.sprintf "double free of frame %d" i)
  else
    let w = i / 64 in
    Ok (with_word a w (Int64.logand (word a w) (Int64.lognot (Int64.shift_left 1L (i mod 64)))))

let bitmap_word a w =
  if w < 0 || w >= bitmap_words a then
    Error (Printf.sprintf "bitmap word %d out of range" w)
  else Ok (word a w)

let set_bitmap_word a w v =
  if w < 0 || w >= bitmap_words a then
    Error (Printf.sprintf "bitmap word %d out of range" w)
  else
    let used = min 64 (a.nframes - (w * 64)) in
    (* bits beyond nframes must stay clear *)
    if used < 64 && not (Int64.equal (Int64.shift_right_logical v used) 0L) then
      Error "bitmap write sets bits beyond the frame pool"
    else if Int64.equal (word a w) v then Ok a
    else Ok (with_word a w v)

let fold_allocated f a acc =
  let rec bits v i acc =
    if Int64.equal v 0L then acc
    else
      let acc = if Int64.equal (Int64.logand v 1L) 1L then f i acc else acc in
      bits (Int64.shift_right_logical v 1) (i + 1) acc
  in
  let rec go w acc =
    if w >= bitmap_words a then acc else go (w + 1) (bits (word a w) (64 * w) acc)
  in
  go 0 acc

let allocated_list a = List.rev (fold_allocated List.cons a [])
let allocated_count a = fold_allocated (fun _ n -> n + 1) a 0
let free_count a = a.nframes - allocated_count a
let equal a b = a == b || (a.nframes = b.nframes && Bytes.equal a.bits b.bits)
