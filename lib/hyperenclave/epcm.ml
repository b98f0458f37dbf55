module Word = Mir.Word
module IntMap = Map.Make (Int)

type page_state = Free | Valid of { eid : int; va : Word.t }

let page_state_equal a b =
  match (a, b) with
  | Free, Free -> true
  | Valid x, Valid y -> x.eid = y.eid && Word.equal x.va y.va
  | (Free | Valid _), _ -> false

let pp_page_state fmt = function
  | Free -> Format.pp_print_string fmt "free"
  | Valid { eid; va } -> Format.fprintf fmt "valid(eid=%d, va=%a)" eid Word.pp va

(* Sparse: absent entries are Free. *)
type t = { npages : int; entries : page_state IntMap.t }

let create ~npages =
  if npages <= 0 then invalid_arg "Epcm.create: need at least one page";
  { npages; entries = IntMap.empty }

let npages m = m.npages

let get m i =
  if i < 0 || i >= m.npages then Error (Printf.sprintf "EPCM index %d out of range" i)
  else Ok (Option.value ~default:Free (IntMap.find_opt i m.entries))

let set m i st =
  if i < 0 || i >= m.npages then Error (Printf.sprintf "EPCM index %d out of range" i)
  else
    let entries =
      match st with
      | Free -> IntMap.remove i m.entries
      | Valid _ -> IntMap.add i st m.entries
    in
    Ok { m with entries }

(* The first gap in the ascending keys: the lowest index that is not
   one. *)
let find_free m =
  let rec gap next keys =
    match keys () with
    | Seq.Cons ((i, _), rest) when i = next -> gap (i + 1) rest
    | Seq.Cons _ | Seq.Nil -> if next < m.npages then Some next else None
  in
  gap 0 (IntMap.to_seq m.entries)

let pages_of_enclave m eid =
  IntMap.bindings m.entries
  |> List.filter_map (fun (i, st) ->
         match st with
         | Valid v when v.eid = eid -> Some (i, v.va)
         | Valid _ | Free -> None)

let valid_count m = IntMap.cardinal m.entries
let free_count m = m.npages - IntMap.cardinal m.entries

let equal a b = a.npages = b.npages && IntMap.equal page_state_equal a.entries b.entries

(* Walks the map, filling the gaps between its keys with [Free]. *)
let fold f m init =
  let rec frees i stop acc = if i >= stop then acc else frees (i + 1) stop (f i Free acc) in
  let next, acc =
    IntMap.fold (fun i st (next, acc) -> (i + 1, f i st (frees next i acc))) m.entries (0, init)
  in
  frees next m.npages acc

let fold_valid f m init =
  IntMap.fold
    (fun i st acc -> match st with Valid { eid; va } -> f i ~eid ~va acc | Free -> acc)
    m.entries init
