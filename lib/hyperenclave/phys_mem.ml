module Word = Mir.Word
module IntMap = Map.Make (Int)

type t = { limit : Word.t; words : Word.t IntMap.t }

let create ~limit =
  if not (Word.equal (Word.extract limit ~lo:0 ~len:3) Word.zero) then
    invalid_arg "Phys_mem.create: limit must be 8-aligned";
  { limit; words = IntMap.empty }

let limit m = m.limit

let word_index m addr =
  if not (Word.equal (Word.extract addr ~lo:0 ~len:3) Word.zero) then
    Error (Printf.sprintf "unaligned 64-bit access at %s" (Word.to_hex addr))
  else if not (Word.lt_u addr m.limit) then
    Error (Printf.sprintf "physical access at %s beyond limit %s" (Word.to_hex addr) (Word.to_hex m.limit))
  else Ok (Int64.to_int (Int64.shift_right_logical addr 3))

let read64 m addr =
  Result.map
    (fun i -> Option.value ~default:Word.zero (IntMap.find_opt i m.words))
    (word_index m addr)

let write64 m addr v =
  Result.map
    (fun i ->
      let words =
        if Word.equal v Word.zero then IntMap.remove i m.words
        else IntMap.add i v m.words
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
