module Word = Mir.Word

(* The nonzero words, keyed by word index ([address / 8], never
   negative), in a big-endian Patricia tree: a [Branch (p, m, l, r)]
   holds the keys that agree with [p] above bit [m], those with bit [m]
   clear in [l].  Its shape is a function of its keys, so equal
   contents give structurally equal trees, and an in-order walk runs in
   address order.  A lookup is integer tests only: no comparison
   closure, option or exception. *)
module Tree = struct
  type t = Empty | Leaf of int * int64 | Branch of int * int * t * t

  let zero_bit k m = k land m = 0
  let mask k m = k land lnot (m lor (m - 1))

  let highest_bit x =
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    let x = x lor (x lsr 32) in
    x land lnot (x lsr 1)

  let join p0 t0 p1 t1 =
    let m = highest_bit (p0 lxor p1) in
    if zero_bit p0 m then Branch (mask p0 m, m, t0, t1) else Branch (mask p0 m, m, t1, t0)

  let branch p m l r = match (l, r) with Empty, t | t, Empty -> t | _ -> Branch (p, m, l, r)

  (* [true] when no key of [Branch (p, m, _, _)], all of them in
     [\[p, p + 2m)], lies in [\[lo, hi)]. *)
  let disjoint p m lo hi = p >= hi || p + (2 * m) <= lo

  let rec find k = function
    | Empty -> 0L
    | Leaf (j, v) -> if j = k then v else 0L
    | Branch (_, m, l, r) -> find k (if zero_bit k m then l else r)

  let rec add k v = function
    | Empty -> Leaf (k, v)
    | Leaf (j, _) as t -> if j = k then Leaf (k, v) else join k (Leaf (k, v)) j t
    | Branch (p, m, l, r) as t ->
        if mask k m <> p then join k (Leaf (k, v)) p t
        else if zero_bit k m then Branch (p, m, add k v l, r)
        else Branch (p, m, l, add k v r)

  (* Remove every key in [\[lo, hi)]. *)
  let rec remove_range lo hi = function
    | Empty -> Empty
    | Leaf (k, _) as t -> if k >= lo && k < hi then Empty else t
    | Branch (p, m, l, r) as t ->
        if disjoint p m lo hi then t
        else if lo <= p && p + (2 * m) <= hi then Empty
        else
          let l' = remove_range lo hi l and r' = remove_range lo hi r in
          if l' == l && r' == r then t else branch p m l' r'

  let remove k t = remove_range k (k + 1) t

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf (k, v) -> f k v acc
    | Branch (_, _, l, r) -> fold f r (fold f l acc)

  (* [fold] over the keys in [\[lo, hi)]. *)
  let rec fold_range lo hi f t acc =
    match t with
    | Empty -> acc
    | Leaf (k, v) -> if k >= lo && k < hi then f k v acc else acc
    | Branch (p, m, l, r) ->
        if disjoint p m lo hi then acc else fold_range lo hi f r (fold_range lo hi f l acc)

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | Leaf (i, v), Leaf (j, w) -> i = j && Int64.equal v w
    | Branch (p, m, l, r), Branch (q, n, l', r') -> p = q && m = n && equal l l' && equal r r'
    | (Empty | Leaf _ | Branch _), _ -> false
end

(* The hot paths test addresses with [Int64] primitives, which the
   compiler inlines and keeps unboxed, and format an error only on the
   failing path. *)
type t = { limit : Word.t; words : Tree.t }

let create ~limit =
  if not (Int64.equal (Int64.logand limit 7L) 0L) then
    invalid_arg "Phys_mem.create: limit must be 8-aligned";
  { limit; words = Tree.Empty }

let limit m = m.limit

let lt_u (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int
let aligned (addr : int64) = Int64.equal (Int64.logand addr 7L) 0L
let valid m addr = aligned addr && lt_u addr m.limit
let index addr = Int64.to_int (Int64.shift_right_logical addr 3)
let address i = Int64.shift_left (Int64.of_int i) 3

let access_error m addr =
  if not (aligned addr) then
    Error (Printf.sprintf "unaligned 64-bit access at %s" (Word.to_hex addr))
  else
    Error
      (Printf.sprintf "physical access at %s beyond limit %s" (Word.to_hex addr)
         (Word.to_hex m.limit))

let read64_unchecked m addr = Tree.find (index addr) m.words

let read64 m addr =
  if valid m addr then Ok (Tree.find (index addr) m.words) else access_error m addr

let with_words m words = if words == m.words then m else { m with words }

let write64 m addr v =
  if not (valid m addr) then access_error m addr
  else
    let i = index addr in
    Ok
      (with_words m
         (if Int64.equal v 0L then Tree.remove i m.words
          else if Int64.equal (Tree.find i m.words) v then m.words
          else Tree.add i v m.words))

(* The first word of [bytes_len > 0] bytes at [addr] that a word-by-word
   loop would fail on, if any.  A range that starts at a valid address
   runs up to the limit before its addresses can wrap, so only its
   first word and the limit itself can fail. *)
let first_invalid m addr ~bytes_len =
  if not (valid m addr) then Some addr
  else if lt_u (Int64.sub m.limit addr) (Int64.of_int bytes_len) then Some m.limit
  else None

let zero_range m addr ~bytes_len =
  if bytes_len mod 8 <> 0 then Error "zero_range: length must be 8-aligned"
  else if bytes_len <= 0 then Ok m
  else
    match first_invalid m addr ~bytes_len with
    | Some bad -> access_error m bad
    | None ->
        let lo = index addr in
        Ok (with_words m (Tree.remove_range lo (lo + (bytes_len / 8)) m.words))

let ( let* ) = Result.bind

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

let read_words m addr ~count =
  if count <= 0 then Ok []
  else
    match first_invalid m addr ~bytes_len:(8 * count) with
    | Some bad -> access_error m bad
    | None ->
        let lo = index addr and hi = index addr + count in
        (* the nonzero words, highest first, merged into the zeros *)
        let present = Tree.fold_range lo hi (fun i v acc -> (i, v) :: acc) m.words [] in
        let rec fill i present acc =
          if i < lo then acc
          else
            match present with
            | (j, v) :: rest when j = i -> fill (i - 1) rest (v :: acc)
            | _ -> fill (i - 1) present (0L :: acc)
        in
        Ok (fill (hi - 1) present [])

let equal_range a b addr ~bytes_len =
  let rec go i =
    if i >= bytes_len then true
    else
      match
        (read64 a (Int64.add addr (Int64.of_int i)), read64 b (Int64.add addr (Int64.of_int i)))
      with
      | Ok va, Ok vb -> Int64.equal va vb && go (i + 8)
      | Error _, _ | _, Error _ -> false
  in
  bytes_len mod 8 = 0 && go 0

let equal a b = a == b || (Int64.equal a.limit b.limit && Tree.equal a.words b.words)
let fold_nonzero f m acc = Tree.fold (fun i v acc -> f (address i) v acc) m.words acc

let fold_nonzero_range m addr ~bytes_len f acc =
  if bytes_len <= 0 then acc
  else
    let lo = index addr in
    Tree.fold_range lo (lo + (bytes_len / 8)) (fun i v acc -> f (address i) v acc) m.words acc

let nonzero_words m = List.rev (fold_nonzero (fun a v acc -> (a, v) :: acc) m [])
