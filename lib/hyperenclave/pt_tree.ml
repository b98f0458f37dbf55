module Word = Mir.Word

let ( let* ) = Result.bind

type node =
  | Term of { pa : Word.t; flags : Flags.t }
  | Table of { frame : int; entries : node option array }

type state = {
  geom : Geometry.t;
  layout : Layout.t;
  falloc : Frame_alloc.t;
  root : node;
}

let empty_table geom ~frame =
  Table { frame; entries = Array.make (Geometry.entries_per_table geom) None }

let create geom layout falloc =
  let* falloc, frame = Frame_alloc.alloc falloc in
  if frame >= layout.Layout.frame_count then Error "root frame outside frame area"
  else Ok { geom; layout; falloc; root = empty_table geom ~frame }

let set_entry entries index sub =
  let entries' = Array.copy entries in
  entries'.(index) <- sub;
  entries'

let check_va st va =
  if Word.lt_u va (Geometry.va_limit st.geom) then Ok ()
  else Error (Printf.sprintf "virtual address %s not translatable" (Word.to_hex va))

(* Insert a terminal at [target_level], allocating intermediate tables. *)
let insert_terminal st ~va ~target_level term =
  let g = st.geom in
  let rec go falloc node level =
    match node with
    | Term _ -> Error (Printf.sprintf "huge mapping at level %d blocks the walk" level)
    | Table { frame; entries } ->
        let index = Geometry.va_index g ~level va in
        if level = target_level then
          match entries.(index) with
          | Some _ ->
              Error
                (Printf.sprintf "va %s already mapped at level %d" (Word.to_hex va) level)
          | None ->
              Ok (falloc, Table { frame; entries = set_entry entries index (Some term) })
        else
          let* falloc, child =
            match entries.(index) with
            | Some child -> Ok (falloc, child)
            | None ->
                let* falloc, f = Frame_alloc.alloc falloc in
                if f >= st.layout.Layout.frame_count then
                  Error "allocated table frame outside frame area"
                else Ok (falloc, empty_table g ~frame:f)
          in
          let* falloc, child' = go falloc child (level - 1) in
          Ok
            ( falloc,
              Table { frame; entries = set_entry entries index (Some child') } )
  in
  let* falloc, root = go st.falloc st.root g.Geometry.levels in
  Ok { st with falloc; root }

let map_page st ~va ~pa flags =
  let g = st.geom in
  let* () = check_va st va in
  if not (Geometry.page_aligned g va) then Error "map_page: va not page-aligned"
  else if not (Geometry.page_aligned g pa) then Error "map_page: pa not page-aligned"
  else if not (Word.lt_u pa (Word.shift_left Word.W64 1L 57)) then
    Error "map_page: pa exceeds the address-field capacity"
  else if not flags.Flags.present then Error "terminal mapping must be present"
  else if flags.Flags.huge then Error "map_page: level-1 mapping cannot be huge"
  else insert_terminal st ~va ~target_level:1 (Term { pa; flags })

let map_huge st ~va ~pa ~level flags =
  let g = st.geom in
  let* () = check_va st va in
  if level <= 1 || level > g.Geometry.levels then
    Error (Printf.sprintf "map_huge: invalid level %d" level)
  else
    let span = Geometry.level_span_shift g ~level in
    if not (Word.equal (Word.extract va ~lo:0 ~len:span) Word.zero) then
      Error "map_huge: va not span-aligned"
    else if not (Word.equal (Word.extract pa ~lo:0 ~len:span) Word.zero) then
      Error "map_huge: pa not span-aligned"
    else if not flags.Flags.present then Error "terminal mapping must be present"
    else
      insert_terminal st ~va ~target_level:level
        (Term { pa; flags = Flags.with_huge flags })

let unmap_page st ~va =
  let g = st.geom in
  let* () = check_va st va in
  let rec go node level =
    match node with
    (* recursion only descends into [Table] children, but the root can
       be a [Term] in a corrupted state (fault injection flips nodes);
       fail typed instead of panicking the whole pass *)
    | Term _ -> Error "corrupt tree: unmap walk reached a terminal node"
    | Table { frame; entries } -> (
        let index = Geometry.va_index g ~level va in
        match entries.(index) with
        | None -> Error (Printf.sprintf "va %s not mapped" (Word.to_hex va))
        | Some (Term _) ->
            Ok (Table { frame; entries = set_entry entries index None })
        | Some (Table _ as child) ->
            if level = 1 then Error "corrupt tree: table below level 1"
            else
              let* child' = go child (level - 1) in
              Ok (Table { frame; entries = set_entry entries index (Some child') }))
  in
  let* root = go st.root g.Geometry.levels in
  Ok { st with root }

let query st ~va =
  let g = st.geom in
  let* () = check_va st va in
  let rec go node level =
    match node with
    | Term { pa; flags } ->
        let span = Geometry.level_span_shift g ~level:(level + 1) in
        let page_bits =
          Word.shift_left Word.W64
            (Word.extract va ~lo:g.Geometry.page_shift
               ~len:(span - g.Geometry.page_shift))
            g.Geometry.page_shift
        in
        Ok (Some (Word.logor pa page_bits, flags))
    | Table { entries; _ } -> (
        let index = Geometry.va_index g ~level va in
        match entries.(index) with
        | None -> Ok None
        | Some child ->
            if level = 1 then
              match child with
              | Term { pa; flags } -> Ok (Some (pa, flags))
              | Table _ -> Error "corrupt tree: table below level 1"
            else go child (level - 1))
  in
  go st.root g.Geometry.levels

let translate st ~va =
  let* q = query st ~va in
  match q with
  | None -> Ok None
  | Some (page, flags) ->
      Ok (Some (Word.logor page (Geometry.page_offset st.geom va), flags))

let mappings st =
  let g = st.geom in
  let page = Int64.of_int (Geometry.page_size g) in
  let expand level va pa flags acc =
    let span = Geometry.level_span_shift g ~level in
    let npages = 1 lsl (span - g.Geometry.page_shift) in
    let out = ref acc in
    for i = npages - 1 downto 0 do
      let off = Int64.mul page (Int64.of_int i) in
      out := (Int64.add va off, Int64.add pa off, flags) :: !out
    done;
    !out
  in
  (* A table node carries its own level; a Term child of a level-l
     table is recursed with l-1, so it spans level (recursion level + 1). *)
  let rec go node level va_base acc =
    match node with
    | Term { pa; flags } -> expand (level + 1) va_base pa flags acc
    | Table { entries; _ } ->
        let acc = ref acc in
        for index = Array.length entries - 1 downto 0 do
          match entries.(index) with
          | None -> ()
          | Some child ->
              let va =
                Int64.add va_base
                  (Int64.shift_left (Int64.of_int index)
                     (Geometry.level_span_shift g ~level))
              in
              acc := go child (level - 1) va !acc
        done;
        !acc
  in
  go st.root g.Geometry.levels 0L []
  |> List.sort (fun (a, _, _) (b, _, _) -> Word.compare_u a b)

let wf st =
  let g = st.geom in
  let seen = Hashtbl.create 16 in
  let rec go node level =
    match node with
    | Term { pa; flags } ->
        let span = Geometry.level_span_shift g ~level:(level + 1) in
        if not flags.Flags.present then Error "terminal entry not present"
        else if not (Word.equal (Word.extract pa ~lo:0 ~len:span) Word.zero) then
          Error (Printf.sprintf "terminal pa %s not aligned to its span" (Word.to_hex pa))
        else if not (Bool.equal flags.Flags.huge (level + 1 > 1)) then
          Error "huge flag must be set exactly on terminals above level 1"
        else Ok ()
    | Table { frame; entries } ->
        if level < 1 then Error "table below level 1"
        else if frame < 0 || frame >= st.layout.Layout.frame_count then
          Error (Printf.sprintf "table frame %d outside frame area" frame)
        else if not (Frame_alloc.is_allocated st.falloc frame) then
          Error (Printf.sprintf "table frame %d not allocated" frame)
        else if Hashtbl.mem seen frame then
          Error (Printf.sprintf "table frame %d shared: not a tree" frame)
        else (
          Hashtbl.add seen frame ();
          if Array.length entries <> Geometry.entries_per_table g then
            Error "table has wrong arity"
          else
            let rec each i =
              if i >= Array.length entries then Ok ()
              else
                match entries.(i) with
                | None -> each (i + 1)
                | Some (Term _ as t) ->
                    let* () = go t (level - 1) in
                    each (i + 1)
                | Some (Table _ as t) ->
                    if level = 1 then Error "table nested below level 1"
                    else
                      let* () = go t (level - 1) in
                      each (i + 1)
            in
            each 0)
  in
  match st.root with
  | Term _ -> Error "root is not a table"
  | Table _ -> go st.root g.Geometry.levels

let rec node_equal a b =
  match (a, b) with
  | Term x, Term y -> Word.equal x.pa y.pa && Flags.equal x.flags y.flags
  | Table x, Table y ->
      x.frame = y.frame
      && Array.length x.entries = Array.length y.entries
      && (let n = Array.length x.entries in
          let rec go i =
            i >= n
            || Option.equal node_equal x.entries.(i) y.entries.(i) && go (i + 1)
          in
          go 0)
  | (Term _ | Table _), _ -> false

let equal a b = Frame_alloc.equal a.falloc b.falloc && node_equal a.root b.root

let pp fmt st =
  let g = st.geom in
  let rec go fmt (node, level, indent) =
    match node with
    | Term { pa; flags } ->
        Format.fprintf fmt "%s-> %a %a@," indent (Word.pp) pa Flags.pp flags
    | Table { frame; entries } ->
        Format.fprintf fmt "%stable@%d (level %d)@," indent frame level;
        Array.iteri
          (fun i e ->
            match e with
            | None -> ()
            | Some child ->
                Format.fprintf fmt "%s[%d]:@," indent i;
                go fmt (child, level - 1, indent ^ "  "))
          entries
  in
  Format.fprintf fmt "@[<v>";
  go fmt (st.root, g.Geometry.levels, "");
  Format.fprintf fmt "@]"
