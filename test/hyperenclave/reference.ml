(* Reference models of the monitor-state kernel: the straightforward
   implementations of [Phys_mem] (a map with a checked read or write
   per word) and [Frame_alloc] (a set of allocated frames) that the
   fast ones replaced.  The kernel tests run both on the same seeded
   operation sequences and compare every result. *)

module Phys_mem = struct
  module Word = Mir.Word
  module IntMap = Map.Make (Int)

  type t = { limit : Word.t; words : Word.t IntMap.t }

  let create ~limit =
    if not (Word.equal (Word.extract limit ~lo:0 ~len:3) Word.zero) then
      invalid_arg "Phys_mem.create: limit must be 8-aligned";
    { limit; words = IntMap.empty }

  let word_index m addr =
    if not (Word.equal (Word.extract addr ~lo:0 ~len:3) Word.zero) then
      Error (Printf.sprintf "unaligned 64-bit access at %s" (Word.to_hex addr))
    else if not (Word.lt_u addr m.limit) then
      Error
        (Printf.sprintf "physical access at %s beyond limit %s" (Word.to_hex addr)
           (Word.to_hex m.limit))
    else Ok (Int64.to_int (Int64.shift_right_logical addr 3))

  let read64 m addr =
    Result.map
      (fun i -> Option.value ~default:Word.zero (IntMap.find_opt i m.words))
      (word_index m addr)

  let write64 m addr v =
    Result.map
      (fun i ->
        let words =
          if Word.equal v Word.zero then IntMap.remove i m.words else IntMap.add i v m.words
        in
        { m with words })
      (word_index m addr)

  let ( let* ) = Result.bind

  let zero_range m addr ~bytes_len =
    if bytes_len mod 8 <> 0 then Error "zero_range: length must be 8-aligned"
    else
      let rec go m i =
        if i >= bytes_len then Ok m
        else
          let* m = write64 m (Int64.add addr (Int64.of_int i)) Word.zero in
          go m (i + 8)
      in
      go m 0

  let copy_range m ~src ~dst ~bytes_len =
    if bytes_len mod 8 <> 0 then Error "copy_range: length must be 8-aligned"
    else
      let rec go m i =
        if i >= bytes_len then Ok m
        else
          let* v = read64 m (Int64.add src (Int64.of_int i)) in
          let* m = write64 m (Int64.add dst (Int64.of_int i)) v in
          go m (i + 8)
      in
      go m 0

  let equal_range a b addr ~bytes_len =
    let rec go i =
      if i >= bytes_len then true
      else
        match
          (read64 a (Int64.add addr (Int64.of_int i)), read64 b (Int64.add addr (Int64.of_int i)))
        with
        | Ok va, Ok vb -> Word.equal va vb && go (i + 8)
        | Error _, _ | _, Error _ -> false
    in
    bytes_len mod 8 = 0 && go 0

  let equal a b = Word.equal a.limit b.limit && IntMap.equal Word.equal a.words b.words

  let fold_nonzero f m acc =
    IntMap.fold (fun i v acc -> f (Int64.shift_left (Int64.of_int i) 3) v acc) m.words acc

  let nonzero_words m = List.rev (fold_nonzero (fun a v acc -> (a, v) :: acc) m [])
end

module Frame_alloc = struct
  module IntSet = Set.Make (Int)

  type t = { nframes : int; allocated : IntSet.t }

  let create ~nframes =
    if nframes <= 0 then invalid_arg "Frame_alloc.create: need at least one frame";
    { nframes; allocated = IntSet.empty }

  let alloc a =
    let rec find i =
      if i >= a.nframes then Error "frame pool exhausted"
      else if IntSet.mem i a.allocated then find (i + 1)
      else Ok ({ a with allocated = IntSet.add i a.allocated }, i)
    in
    find 0

  let free a i =
    if i < 0 || i >= a.nframes then Error (Printf.sprintf "free of out-of-range frame %d" i)
    else if not (IntSet.mem i a.allocated) then Error (Printf.sprintf "double free of frame %d" i)
    else Ok { a with allocated = IntSet.remove i a.allocated }

  let is_allocated a i = IntSet.mem i a.allocated
  let bitmap_words a = (a.nframes + 63) / 64

  let bitmap_word a w =
    if w < 0 || w >= bitmap_words a then Error (Printf.sprintf "bitmap word %d out of range" w)
    else
      Ok
        (IntSet.fold
           (fun i acc ->
             if i / 64 = w then Int64.logor acc (Int64.shift_left 1L (i mod 64)) else acc)
           a.allocated 0L)

  let set_bitmap_word a w v =
    if w < 0 || w >= bitmap_words a then Error (Printf.sprintf "bitmap word %d out of range" w)
    else
      let lo = w * 64 in
      let hi = min a.nframes (lo + 64) in
      (* bits beyond nframes must stay clear *)
      let excess = if hi - lo >= 64 then 0L else Int64.shift_right_logical v (hi - lo) in
      if not (Int64.equal excess 0L) then Error "bitmap write sets bits beyond the frame pool"
      else
        let cleared = IntSet.filter (fun i -> i / 64 <> w) a.allocated in
        let rec add i acc =
          if i >= hi then acc
          else
            add (i + 1)
              (if Int64.equal (Int64.logand (Int64.shift_right_logical v (i - lo)) 1L) 1L then
                 IntSet.add i acc
               else acc)
        in
        Ok { a with allocated = add lo cleared }

  let allocated_count a = IntSet.cardinal a.allocated
  let free_count a = a.nframes - IntSet.cardinal a.allocated
  let allocated_list a = IntSet.elements a.allocated
  let equal a b = a.nframes = b.nframes && IntSet.equal a.allocated b.allocated
end
