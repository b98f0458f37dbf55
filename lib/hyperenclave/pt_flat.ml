module Word = Mir.Word

let ( let* ) = Result.bind

type walk_result =
  | Missing of int
  | Terminal of { level : int; frame : int; index : int; entry : Word.t }

let check_frame (d : Absdata.t) frame =
  if frame < 0 || frame >= d.layout.Layout.frame_count then
    Error (Printf.sprintf "table frame %d outside the frame area" frame)
  else if not (Frame_alloc.is_allocated d.falloc frame) then
    Error (Printf.sprintf "table frame %d is not allocated" frame)
  else Ok ()

let check_entry (d : Absdata.t) ~frame ~index =
  let* () = check_frame d frame in
  if index < 0 || index >= Geometry.entries_per_table (Absdata.geom d) then
    Error (Printf.sprintf "entry index %d out of range" index)
  else Ok ()

let entry_addr (d : Absdata.t) frame index =
  Int64.add (Layout.frame_addr d.layout frame) (Int64.of_int (8 * index))

let entry_pa d ~frame ~index =
  let* () = check_entry d ~frame ~index in
  Ok (entry_addr d frame index)

let read_entry (d : Absdata.t) ~frame ~index =
  let* () = check_entry d ~frame ~index in
  Phys_mem.read64 d.phys (entry_addr d frame index)

let write_entry (d : Absdata.t) ~frame ~index e =
  let* pa = entry_pa d ~frame ~index in
  let* phys = Phys_mem.write64 d.phys pa e in
  Ok { d with Absdata.phys }

(* The three mutators are the low specs of the verified code
   ({!Mem_spec}): status 0 is [Ok], any other status an [Error]. *)
let of_status what = function
  | Ok (d, 0L) -> Ok d
  | Ok (_, status) -> Error (Printf.sprintf "%s: the low spec returns status %Ld" what status)
  | Error msg -> Error (Printf.sprintf "%s: %s" what msg)

let create_table (d : Absdata.t) =
  let* d, frame = Mem_spec.create_table d in
  if Int64.equal frame (Int64.of_int d.layout.Layout.frame_count) then
    Error "create_table: no free frame"
  else Ok (d, Int64.to_int frame)

let check_va (d : Absdata.t) va =
  let g = Absdata.geom d in
  if Word.lt_u va (Geometry.va_limit g) then Ok ()
  else Error (Printf.sprintf "virtual address %s not translatable" (Word.to_hex va))

(* Follow the entry of [frame] at [level] for [va]; caller guarantees
   level >= 1.  Returns the entry's coordinates and value. *)
let entry_at (d : Absdata.t) ~frame ~level va =
  let g = Absdata.geom d in
  let index = Geometry.va_index g ~level va in
  let* entry = read_entry d ~frame ~index in
  Ok (index, entry)

let next_frame (d : Absdata.t) entry =
  let g = Absdata.geom d in
  let pa = Pte.addr g entry in
  match Layout.frame_index d.layout pa with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf
           "non-terminal entry points at %s, outside the frame area: malformed \
            page table" (Word.to_hex pa))

(* The read side checks each table frame once, before it reads the
   table.  [Layout.make] places the frame area between the monitor and
   the EPC, below the physical limit (for any layout whose regions do
   not wrap around the address space), so the entries of a checked
   frame are aligned words inside physical memory and are read without
   a per-entry check: the errors are those of [read_entry], whose other
   checks cannot fail on such a frame and an index below
   [entries_per_table]. *)
let checked_entry (d : Absdata.t) frame index =
  Phys_mem.read64_unchecked d.phys (entry_addr d frame index)

let fold_checked (d : Absdata.t) frame f acc =
  let g = Absdata.geom d in
  let base = Layout.frame_addr d.layout frame in
  Phys_mem.fold_nonzero_range d.phys base ~bytes_len:(Geometry.page_size g)
    (fun pa entry acc ->
      if Pte.is_present g entry then f (Int64.to_int (Int64.sub pa base) / 8) entry acc else acc)
    acc

let fold_present d ~frame f acc =
  let* () = check_frame d frame in
  Ok (fold_checked d frame f acc)

let walk (d : Absdata.t) ~root va =
  let g = Absdata.geom d in
  let* () = check_va d va in
  let* () = check_frame d root in
  let rec go frame level =
    let index = Geometry.va_index g ~level va in
    let entry = checked_entry d frame index in
    if not (Pte.is_present g entry) then Ok (Missing level)
    else if level = 1 || Pte.is_huge g entry then
      Ok (Terminal { level; frame; index; entry })
    else
      let* next = next_frame d entry in
      let* () = check_frame d next in
      go next (level - 1)
  in
  go root g.Geometry.levels

let map_page (d : Absdata.t) ~root ~va ~pa flags =
  of_status "map_page"
    (Mem_spec.map_page d ~root:(Int64.of_int root) ~va ~pa
       ~flags:(Flags.encode (Absdata.geom d) flags))

let map_huge (d : Absdata.t) ~root ~va ~pa ~level flags =
  let g = Absdata.geom d in
  let* () = check_va d va in
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
      (* Walk (allocating) down to [level]. *)
      let rec go d frame l =
        if l = level then Ok (d, frame)
        else
          let* index, entry = entry_at d ~frame ~level:l va in
          if Pte.is_present g entry then
            if Pte.is_huge g entry then
              Error (Printf.sprintf "huge mapping at level %d blocks the walk" l)
            else
              let* next = next_frame d entry in
              go d next (l - 1)
          else
            let* d, next = create_table d in
            let next_pa = Layout.frame_addr d.layout next in
            (* intermediate entries are user_rw, as the code writes them *)
            let* d = write_entry d ~frame ~index (Pte.make g ~pa:next_pa Flags.user_rw) in
            go d next (l - 1)
      in
      let* () = check_frame d root in
      let* d, frame = go d root g.Geometry.levels in
      let index = Geometry.va_index g ~level va in
      let* old_entry = read_entry d ~frame ~index in
      if Pte.is_present g old_entry then
        Error (Printf.sprintf "va %s already mapped at level %d" (Word.to_hex va) level)
      else
        write_entry d ~frame ~index
          (Pte.make g ~pa (Flags.with_huge flags))

let unmap_page (d : Absdata.t) ~root ~va =
  of_status "unmap_page" (Mem_spec.unmap_page d ~root:(Int64.of_int root) ~va)

let query (d : Absdata.t) ~root ~va =
  let g = Absdata.geom d in
  let* result = walk d ~root va in
  match result with
  | Missing _ -> Ok None
  | Terminal { level; entry; _ } ->
      let span = Geometry.level_span_shift g ~level in
      let base = Pte.addr g entry in
      (* page of [va] within the (possibly huge) span *)
      let page_bits =
        Word.shift_left Word.W64
          (Word.extract va ~lo:g.Geometry.page_shift ~len:(span - g.Geometry.page_shift))
          g.Geometry.page_shift
      in
      Ok (Some (Word.logor base page_bits, Pte.flags g entry))

let translate (d : Absdata.t) ~root ~va =
  let g = Absdata.geom d in
  let* q = query d ~root ~va in
  match q with
  | None -> Ok None
  | Some (page, flags) ->
      Ok (Some (Word.logor page (Geometry.page_offset g va), flags))

let mappings (d : Absdata.t) ~root =
  let g = Absdata.geom d in
  let* () = check_frame d root in
  let page = Int64.of_int (Geometry.page_size g) in
  let rec table frame level va_base acc =
    let span = Geometry.level_span_shift g ~level in
    fold_checked d frame
      (fun index entry acc ->
        let* acc = acc in
        let va = Int64.add va_base (Int64.shift_left (Int64.of_int index) span) in
        if level = 1 || Pte.is_huge g entry then (
          (* expand a huge mapping into pages *)
          let npages = 1 lsl (span - g.Geometry.page_shift) in
          let base = Pte.addr g entry in
          let flags = Pte.flags g entry in
          let acc = ref acc in
          for i = npages - 1 downto 0 do
            let off = Int64.mul page (Int64.of_int i) in
            acc := (Int64.add va off, Int64.add base off, flags) :: !acc
          done;
          Ok !acc)
        else
          let* next = next_frame d entry in
          let* () = check_frame d next in
          table next (level - 1) va (Ok acc))
      acc
  in
  let* acc = table root g.Geometry.levels 0L (Ok []) in
  Ok (List.rev acc)

let table_frames (d : Absdata.t) ~root =
  let g = Absdata.geom d in
  let* () = check_frame d root in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let visit frame =
    if Hashtbl.mem seen frame then
      Error (Printf.sprintf "table frame %d reachable twice: tables must form a tree" frame)
    else (
      Hashtbl.add seen frame ();
      order := frame :: !order;
      Ok ())
  in
  let rec table frame level =
    let* () = visit frame in
    if level = 1 then Ok ()
    else
      fold_checked d frame
        (fun _ entry acc ->
          let* () = acc in
          if Pte.is_huge g entry then Ok ()
          else
            let* next = next_frame d entry in
            let* () = check_frame d next in
            table next (level - 1))
        (Ok ())
  in
  let* () = table root g.Geometry.levels in
  Ok (List.rev !order)
