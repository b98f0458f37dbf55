module Spec = Mirverif.Spec
module M = Marshal_v
module Word = Mir.Word

let ( let* ) = Result.bind

type t = { layer : string; spec : Absdata.t Spec.t }

let layer_names =
  [
    "Trusted"; "PteOps"; "FrameAlloc"; "PhysEntry"; "TableOps"; "WalkRead";
    "WalkAlloc"; "PtMap"; "PtQuery"; "AddrSpace"; "Epcm"; "MarshBuf";
    "EnclaveMem"; "Hypercalls"; "IsolationModel";
  ]

(* ------------------------------------------------------------------ *)
(* Geometry-derived constants, mirroring Mem_source                    *)

type k = {
  layout : Layout.t;
  page_size : int64;
  entries : int64;
  levels : int64;
  va_limit : int64;
  present_mask : int64;
  huge_mask : int64;
  flags_mask : int64;
  addr_mask : int64;
  user_rw : int64;
  frame_base : int64;
  nframes : int64;
  epc_base : int64;
  epc_pages : int64;
  mbuf_phys : int64;
  mbuf_pages : int64;
  phys_limit : int64;
}

let konst (layout : Layout.t) =
  let g = layout.Layout.geom in
  let bit i = Int64.shift_left 1L i in
  let page_size = Int64.of_int (Geometry.page_size g) in
  {
    layout;
    page_size;
    entries = Int64.of_int (Geometry.entries_per_table g);
    levels = Int64.of_int g.Geometry.levels;
    va_limit = Geometry.va_limit g;
    present_mask = bit g.Geometry.fb_present;
    huge_mask = bit g.Geometry.fb_huge;
    flags_mask =
      Int64.logor
        (Int64.logor (bit g.Geometry.fb_present) (bit g.Geometry.fb_write))
        (Int64.logor (bit g.Geometry.fb_user) (bit g.Geometry.fb_huge));
    addr_mask =
      Int64.logand (Int64.sub (bit 57) 1L) (Int64.lognot (Int64.sub page_size 1L));
    user_rw =
      Int64.logor (bit g.Geometry.fb_present)
        (Int64.logor (bit g.Geometry.fb_write) (bit g.Geometry.fb_user));
    frame_base = layout.Layout.frame_base;
    nframes = Int64.of_int layout.Layout.frame_count;
    epc_base = layout.Layout.epc_base;
    epc_pages = Int64.of_int layout.Layout.epc_pages;
    mbuf_phys = layout.Layout.mbuf_base;
    mbuf_pages = Int64.of_int layout.Layout.mbuf_pages;
    phys_limit = Layout.phys_limit layout;
  }

let ok_ = Mem_source.status_ok
let invalid = Mem_source.status_invalid
let nomem = Mem_source.status_no_memory
let badstate = Mem_source.status_bad_state

(* 64-bit wrapping helpers, matching the code's u64 arithmetic; the
   primitives themselves, so that they compile inline *)
external ( +% ) : int64 -> int64 -> int64 = "%int64_add"
external ( *% ) : int64 -> int64 -> int64 = "%int64_mul"
external ( &% ) : int64 -> int64 -> int64 = "%int64_and"
external ( |% ) : int64 -> int64 -> int64 = "%int64_or"

let lt_u (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int
let le_u (a : int64) (b : int64) = Int64.sub a Int64.min_int <= Int64.sub b Int64.min_int

(* ------------------------------------------------------------------ *)
(* Pure layer-2 semantics, shared by higher specs                      *)

let pte_is_present k e = not (Int64.equal (e &% k.present_mask) 0L)
let pte_is_huge k e = not (Int64.equal (e &% k.huge_mask) 0L)
let pte_addr k e = e &% k.addr_mask
let pte_flag_bits k e = e &% k.flags_mask
let pte_make k pa flags = pte_addr k pa |% (flags &% k.flags_mask)
let page_offset k va = va &% Int64.sub k.page_size 1L
let page_base k va = va &% Int64.lognot (Int64.sub k.page_size 1L)
let is_page_aligned k a = Int64.equal (page_offset k a) 0L
let va_ok k va = lt_u va k.va_limit

let span_shift k level =
  let g = k.layout.Layout.geom in
  Int64.of_int g.Geometry.page_shift
  +% (Int64.sub level 1L *% Int64.of_int g.Geometry.index_bits)

(* The code's [>>] faults on shift amounts outside 0..63, so the spec
   is undefined there (callers always pass levels 1..LEVELS). *)
let va_index_checked k level va =
  let sh = span_shift k level in
  if lt_u sh 64L then Ok (Word.shift_right Word.W64 va (Int64.to_int sh) &% Int64.sub k.entries 1L)
  else Error (Printf.sprintf "va_index: shift amount %Lu out of range" sh)

let va_index k level va =
  match va_index_checked k level va with
  | Ok v -> v
  | Error msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* Stateful semantics helpers (mirror the code exactly)                *)

let frame_addr k frame = k.frame_base +% (frame *% k.page_size)
let entry_pa k frame index = frame_addr k frame +% (index *% 8L)

let read_entry k (d : Absdata.t) frame index =
  Phys_mem.read64 d.Absdata.phys (entry_pa k frame index)

let write_entry k (d : Absdata.t) frame index e =
  let* phys = Phys_mem.write64 d.Absdata.phys (entry_pa k frame index) e in
  Ok { d with Absdata.phys }

let frame_is_allocated k (d : Absdata.t) i =
  lt_u i k.nframes
  && Frame_alloc.is_allocated d.Absdata.falloc (Int64.to_int i)

let frame_alloc_sem k (d : Absdata.t) =
  match Frame_alloc.alloc d.Absdata.falloc with
  | Ok (falloc, i) -> ({ d with Absdata.falloc }, Int64.of_int i)
  | Error _ -> (d, k.nframes)

let table_zero_sem k (d : Absdata.t) frame =
  let* phys =
    Phys_mem.zero_range d.Absdata.phys (frame_addr k frame)
      ~bytes_len:(Int64.to_int k.page_size)
  in
  Ok { d with Absdata.phys }

let create_table_sem k d =
  let d, f = frame_alloc_sem k d in
  if Int64.equal f k.nframes then Ok (d, k.nframes)
  else
    let* d = table_zero_sem k d f in
    Ok (d, f)

let entry_target_frame_sem k d e =
  let pa = pte_addr k e in
  if lt_u pa k.frame_base then k.nframes
  else
    let idx = Word.shift_right Word.W64 (Int64.sub pa k.frame_base)
        k.layout.Layout.geom.Geometry.page_shift
    in
    if not (lt_u idx k.nframes) then k.nframes
    else if not (frame_is_allocated k d idx) then k.nframes
    else idx

type walk_out = { w_status : int64; w_level : int64; w_frame : int64; w_index : int64; w_entry : int64 }

let walk_sem k d root va =
  let rec go frame level =
    let index = va_index k level va in
    let* e = read_entry k d frame index in
    if not (pte_is_present k e) then
      Ok { w_status = Mem_source.walk_missing; w_level = level; w_frame = frame; w_index = index; w_entry = e }
    else if Int64.equal level 1L || pte_is_huge k e then
      Ok { w_status = Mem_source.walk_found; w_level = level; w_frame = frame; w_index = index; w_entry = e }
    else
      let next = entry_target_frame_sem k d e in
      if Int64.equal next k.nframes then
        Ok { w_status = Mem_source.walk_malformed; w_level = level; w_frame = frame; w_index = index; w_entry = e }
      else go next (Int64.sub level 1L)
  in
  go root k.levels

let walk_alloc_sem k d root va =
  let rec go d frame level =
    if not (Word.lt_u 1L level) then Ok (d, ok_, frame)
    else
      let index = va_index k level va in
      let* e = read_entry k d frame index in
      if pte_is_present k e then
        if pte_is_huge k e then Ok (d, invalid, frame)
        else
          let next = entry_target_frame_sem k d e in
          if Int64.equal next k.nframes then Ok (d, invalid, frame)
          else go d next (Int64.sub level 1L)
      else
        let* d, fresh = create_table_sem k d in
        if Int64.equal fresh k.nframes then Ok (d, nomem, frame)
        else
          let* d = write_entry k d frame index (pte_make k (frame_addr k fresh) k.user_rw) in
          go d fresh (Int64.sub level 1L)
  in
  go d root k.levels

let map_page_sem k d root va pa flags =
  if
    (not (va_ok k va))
    || (not (is_page_aligned k va))
    || (not (is_page_aligned k pa))
    || Int64.equal (flags &% k.present_mask) 0L
    || not (Int64.equal (flags &% k.huge_mask) 0L)
  then Ok (d, invalid)
  else
    let* d, status, frame = walk_alloc_sem k d root va in
    if not (Int64.equal status ok_) then Ok (d, status)
    else
      let index = va_index k 1L va in
      let* old = read_entry k d frame index in
      if pte_is_present k old then Ok (d, invalid)
      else
        let* d = write_entry k d frame index (pte_make k pa flags) in
        Ok (d, ok_)

let unmap_page_sem k d root va =
  if not (va_ok k va) then Ok (d, invalid)
  else
    let* w = walk_sem k d root va in
    if not (Int64.equal w.w_status Mem_source.walk_found) then Ok (d, invalid)
    else
      let* d = write_entry k d w.w_frame w.w_index 0L in
      Ok (d, ok_)

type query_out = { q_present : int64; q_pa : int64; q_flags : int64 }

let query_sem k d root va =
  if not (va_ok k va) then Ok { q_present = 0L; q_pa = 0L; q_flags = 0L }
  else
    let* w = walk_sem k d root va in
    if not (Int64.equal w.w_status Mem_source.walk_found) then
      Ok { q_present = 0L; q_pa = 0L; q_flags = 0L }
    else
      let span = Int64.to_int (span_shift k w.w_level) in
      let base = pte_addr k w.w_entry in
      let within =
        va
        &% Int64.sub (Int64.shift_left 1L span) 1L
        &% Int64.lognot (Int64.sub k.page_size 1L)
      in
      Ok { q_present = 1L; q_pa = base |% within; q_flags = pte_flag_bits k w.w_entry }

let map_range_sem k d root va pa pages flags =
  let rec go d i =
    if not (lt_u i pages) then Ok (d, ok_)
    else
      let* d, status =
        map_page_sem k d root (va +% (i *% k.page_size)) (pa +% (i *% k.page_size)) flags
      in
      if not (Int64.equal status ok_) then Ok (d, status)
      else go d (i +% 1L)
  in
  go d 0L

let epcm_state_sem (d : Absdata.t) page =
  let* st = Epcm.get d.Absdata.epcm (Int64.to_int page) in
  Ok (match st with Epcm.Free -> 0L | Epcm.Valid _ -> 1L)

let epcm_find_free_sem k (d : Absdata.t) =
  let rec go i =
    if not (lt_u i k.epc_pages) then Ok k.epc_pages
    else
      let* st = epcm_state_sem d i in
      if Int64.equal st 0L then Ok i else go (i +% 1L)
  in
  go 0L

let epc_page_addr_sem k page = k.epc_base +% (page *% k.page_size)

let epc_page_zero_sem k (d : Absdata.t) page =
  let rec go d off =
    if not (lt_u off k.page_size) then Ok d
    else
      let* phys = Phys_mem.write64 d.Absdata.phys (epc_page_addr_sem k page +% off) 0L in
      go { d with Absdata.phys } (off +% 8L)
  in
  go d 0L

let epcm_set_valid_sem k (d : Absdata.t) page eid va =
  if le_u k.epc_pages page then Ok (d, invalid)
  else
    let* st = epcm_state_sem d page in
    if not (Int64.equal st 0L) then Ok (d, invalid)
    else
      let* epcm =
        Epcm.set d.Absdata.epcm (Int64.to_int page)
          (Epcm.Valid { eid = Int64.to_int eid; va })
      in
      Ok ({ d with Absdata.epcm }, ok_)

let epcm_clear_sem k (d : Absdata.t) page =
  if le_u k.epc_pages page then Ok (d, invalid)
  else
    let* st = epcm_state_sem d page in
    if not (Int64.equal st 1L) then Ok (d, invalid)
    else
      let* epcm = Epcm.set d.Absdata.epcm (Int64.to_int page) Epcm.Free in
      Ok ({ d with Absdata.epcm }, ok_)

let mbuf_map_one_sem k d gpt ept va hpa =
  let* d, s1 = map_page_sem k d gpt va va k.user_rw in
  if not (Int64.equal s1 ok_) then Ok (d, s1)
  else map_page_sem k d ept va hpa k.user_rw

let mbuf_map_sem k d gpt ept mbuf_va =
  let rec go d i =
    if not (lt_u i k.mbuf_pages) then Ok (d, ok_)
    else
      let* d, status =
        mbuf_map_one_sem k d gpt ept
          (mbuf_va +% (i *% k.page_size))
          (k.mbuf_phys +% (i *% k.page_size))
      in
      if not (Int64.equal status ok_) then Ok (d, status)
      else go d (i +% 1L)
  in
  go d 0L

(* Enclave struct field order, matching the Rustlite declaration *)
type encl = {
  en_eid : int64;
  en_state : int64;
  en_elrange_base : int64;
  en_elrange_pages : int64;
  en_mbuf_va : int64;
  en_gpt_root : int64;
  en_ept_root : int64;
}

let lifecycle_code = function
  | Enclave.Created -> Mem_source.lifecycle_created
  | Enclave.Initialized -> Mem_source.lifecycle_initialized

let encl_of_enclave (e : Enclave.t) =
  {
    en_eid = Int64.of_int e.Enclave.eid;
    en_state = lifecycle_code e.Enclave.state;
    en_elrange_base = e.Enclave.elrange_base;
    en_elrange_pages = Int64.of_int e.Enclave.elrange_pages;
    en_mbuf_va = e.Enclave.mbuf_va;
    en_gpt_root = Int64.of_int e.Enclave.gpt_root;
    en_ept_root = Int64.of_int e.Enclave.ept_root;
  }

let decode_enclave v =
  match v with
  | Mir.Value.Struct
      ( 0,
        [
          Mir.Value.Int (eid, _); Mir.Value.Int (state, _);
          Mir.Value.Int (elrange_base, _); Mir.Value.Int (elrange_pages, _);
          Mir.Value.Int (mbuf_va, _); Mir.Value.Int (gpt_root, _);
          Mir.Value.Int (ept_root, _);
        ] ) ->
      Ok
        {
          en_eid = eid;
          en_state = state;
          en_elrange_base = elrange_base;
          en_elrange_pages = elrange_pages;
          en_mbuf_va = mbuf_va;
          en_gpt_root = gpt_root;
          en_ept_root = ept_root;
        }
  | _ -> Error "expected an Enclave struct value"

let in_elrange_sem k e va =
  le_u e.en_elrange_base va
  && lt_u va (e.en_elrange_base +% (e.en_elrange_pages *% k.page_size))

let add_page_sem k d e va =
  if not (Int64.equal e.en_state Mem_source.lifecycle_created) then Ok (d, badstate)
  else if not (is_page_aligned k va) then Ok (d, invalid)
  else if not (in_elrange_sem k e va) then Ok (d, invalid)
  else
    let* page = epcm_find_free_sem k d in
    if Int64.equal page k.epc_pages then Ok (d, nomem)
    else
      let* d, s1 = map_page_sem k d e.en_gpt_root va va k.user_rw in
      if not (Int64.equal s1 ok_) then Ok (d, s1)
      else
        let* d, s2 = map_page_sem k d e.en_ept_root va (epc_page_addr_sem k page) k.user_rw in
        if not (Int64.equal s2 ok_) then Ok (d, s2)
        else
          let* d = epc_page_zero_sem k d page in
          let* d, _ = epcm_set_valid_sem k d page e.en_eid va in
          Ok (d, ok_)

let remove_page_sem k (d : Absdata.t) e va =
  if not (Int64.equal e.en_state Mem_source.lifecycle_created) then Ok (d, badstate)
  else if not (is_page_aligned k va) then Ok (d, invalid)
  else if not (in_elrange_sem k e va) then Ok (d, invalid)
  else
    let* q = query_sem k d e.en_ept_root va in
    if Int64.equal q.q_present 0L then Ok (d, invalid)
    else if lt_u q.q_pa k.epc_base then Ok (d, invalid)
    else
      let page =
        Word.shift_right Word.W64 (Int64.sub q.q_pa k.epc_base)
          k.layout.Layout.geom.Geometry.page_shift
      in
      if le_u k.epc_pages page then Ok (d, invalid)
      else
        let* st = Epcm.get d.Absdata.epcm (Int64.to_int page) in
        match st with
        | Epcm.Free -> Ok (d, invalid)
        | Epcm.Valid { eid; va = rec_va } ->
            if not (Int64.equal (Int64.of_int eid) e.en_eid) then Ok (d, invalid)
            else if not (Word.equal rec_va va) then Ok (d, invalid)
            else
              let* d, s1 = unmap_page_sem k d e.en_gpt_root va in
              if not (Int64.equal s1 ok_) then Ok (d, s1)
              else
                let* d, s2 = unmap_page_sem k d e.en_ept_root va in
                if not (Int64.equal s2 ok_) then Ok (d, s2)
                else
                  let* d = epc_page_zero_sem k d page in
                  let* d, _ = epcm_clear_sem k d page in
                  Ok (d, ok_)

let ranges_disjoint_sem k base1 pages1 base2 pages2 =
  le_u (base1 +% (pages1 *% k.page_size)) base2
  || le_u (base2 +% (pages2 *% k.page_size)) base1

let range_ok_sem k base pages =
  (not (Int64.equal pages 0L))
  && is_page_aligned k base && va_ok k base
  && le_u (base +% (pages *% k.page_size)) k.va_limit

let hc_create_sem k d elrange_base elrange_pages mbuf_va =
  if
    (not (range_ok_sem k elrange_base elrange_pages))
    || (not (range_ok_sem k mbuf_va k.mbuf_pages))
    || not (ranges_disjoint_sem k elrange_base elrange_pages mbuf_va k.mbuf_pages)
  then Ok (d, invalid, 0L, 0L)
  else
    let* d, gpt = create_table_sem k d in
    if Int64.equal gpt k.nframes then Ok (d, nomem, 0L, 0L)
    else
      let* d, ept = create_table_sem k d in
      if Int64.equal ept k.nframes then Ok (d, nomem, 0L, 0L)
      else
        let* d, s = mbuf_map_sem k d gpt ept mbuf_va in
        if not (Int64.equal s ok_) then Ok (d, s, 0L, 0L)
        else Ok (d, ok_, gpt, ept)

(* ------------------------------------------------------------------ *)
(* Value encodings                                                     *)

let walk_out_value w =
  M.strukt [ M.u64 w.w_status; M.u64 w.w_level; M.u64 w.w_frame; M.u64 w.w_index; M.u64 w.w_entry ]

let query_out_value q = M.strukt [ M.u64 q.q_present; M.u64 q.q_pa; M.u64 q.q_flags ]

let enclave_to_value (e : Enclave.t) =
  M.strukt
    [
      M.of_int e.Enclave.eid;
      M.u64 (lifecycle_code e.Enclave.state);
      M.u64 e.Enclave.elrange_base;
      M.of_int e.Enclave.elrange_pages;
      M.u64 e.Enclave.mbuf_va;
      M.of_int e.Enclave.gpt_root;
      M.of_int e.Enclave.ept_root;
    ]

(* ------------------------------------------------------------------ *)
(* Spec table                                                          *)

let pure1 name f =
  Spec.make name (fun d args ->
      let* a = M.arg1 args in
      Ok (d, f a))

let pure2 name f =
  Spec.make name (fun d args ->
      let* a, b = M.arg2 args in
      Ok (d, f a b))

let build_all k =
  let l layer specs = List.map (fun spec -> { layer; spec }) specs in
  l "PteOps"
    [
      Spec.make "pte_empty" (fun d args ->
          match args with [] -> Ok (d, M.u64 0L) | _ -> Error "pte_empty takes no arguments");
      pure1 "pte_is_present" (fun e -> M.of_bool (pte_is_present k e));
      pure1 "pte_is_huge" (fun e -> M.of_bool (pte_is_huge k e));
      pure1 "pte_is_writable" (fun e ->
          M.of_bool (not (Int64.equal (e &% Int64.shift_left 1L k.layout.Layout.geom.Geometry.fb_write) 0L)));
      pure1 "pte_is_user" (fun e ->
          M.of_bool (not (Int64.equal (e &% Int64.shift_left 1L k.layout.Layout.geom.Geometry.fb_user) 0L)));
      pure1 "pte_addr" (fun e -> M.u64 (pte_addr k e));
      pure1 "pte_flag_bits" (fun e -> M.u64 (pte_flag_bits k e));
      pure2 "pte_make" (fun pa flags -> M.u64 (pte_make k pa flags));
      pure2 "pte_set_flags" (fun e flags -> M.u64 (pte_make k e flags));
      pure1 "page_offset" (fun va -> M.u64 (page_offset k va));
      pure1 "page_base" (fun va -> M.u64 (page_base k va));
      pure1 "is_page_aligned" (fun a -> M.of_bool (is_page_aligned k a));
      pure1 "va_ok" (fun va -> M.of_bool (va_ok k va));
      pure1 "span_shift" (fun level -> M.u64 (span_shift k level));
      Spec.make "va_index" (fun d args ->
          let* level, va = M.arg2 args in
          let* v = va_index_checked k level va in
          Ok (d, M.u64 v));
    ]
  @ l "FrameAlloc"
      [
        Spec.make "frame_bit_is_set" (fun (d : Absdata.t) args ->
            let* i = M.arg1 args in
            let* i = M.to_int i in
            let* w = Frame_alloc.bitmap_word d.Absdata.falloc (i / 64) in
            Ok (d, M.of_bool (Word.bit w (i mod 64))));
        Spec.make "frame_mark" (fun (d : Absdata.t) args ->
            let* i = M.arg1 args in
            let* i = M.to_int i in
            let* w = Frame_alloc.bitmap_word d.Absdata.falloc (i / 64) in
            let* falloc =
              Frame_alloc.set_bitmap_word d.Absdata.falloc (i / 64)
                (Word.set_bit w (i mod 64) true)
            in
            Ok ({ d with Absdata.falloc }, M.unit_v));
        Spec.make "frame_clear" (fun (d : Absdata.t) args ->
            let* i = M.arg1 args in
            let* i = M.to_int i in
            let* w = Frame_alloc.bitmap_word d.Absdata.falloc (i / 64) in
            let* falloc =
              Frame_alloc.set_bitmap_word d.Absdata.falloc (i / 64)
                (Word.set_bit w (i mod 64) false)
            in
            Ok ({ d with Absdata.falloc }, M.unit_v));
        Spec.make "frame_alloc" (fun d args ->
            match args with
            | [] ->
                let d, i = frame_alloc_sem k d in
                Ok (d, M.u64 i)
            | _ -> Error "frame_alloc takes no arguments");
        Spec.make "frame_free" (fun (d : Absdata.t) args ->
            let* i = M.arg1 args in
            if le_u k.nframes i then Ok (d, M.u64 invalid)
            else if not (Frame_alloc.is_allocated d.Absdata.falloc (Int64.to_int i))
            then Ok (d, M.u64 invalid)
            else
              let* falloc = Frame_alloc.free d.Absdata.falloc (Int64.to_int i) in
              Ok ({ d with Absdata.falloc }, M.u64 ok_));
        Spec.make "frame_is_allocated" (fun d args ->
            let* i = M.arg1 args in
            Ok (d, M.of_bool (frame_is_allocated k d i)));
      ]
  @ l "PhysEntry"
      [
        pure1 "frame_addr" (fun f -> M.u64 (frame_addr k f));
        pure2 "entry_pa" (fun f i -> M.u64 (entry_pa k f i));
        Spec.make "read_entry" (fun d args ->
            let* f, i = M.arg2 args in
            let* e = read_entry k d f i in
            Ok (d, M.u64 e));
        Spec.make "write_entry" (fun d args ->
            let* f, i, e = M.arg3 args in
            let* d = write_entry k d f i e in
            Ok (d, M.unit_v));
      ]
  @ l "TableOps"
      [
        Spec.make "table_zero" (fun d args ->
            let* f = M.arg1 args in
            let* d = table_zero_sem k d f in
            Ok (d, M.unit_v));
        Spec.make "create_table" (fun d args ->
            match args with
            | [] ->
                let* d, f = create_table_sem k d in
                Ok (d, M.u64 f)
            | _ -> Error "create_table takes no arguments");
      ]
  @ l "WalkRead"
      [
        Spec.make "entry_target_frame" (fun d args ->
            let* e = M.arg1 args in
            Ok (d, M.u64 (entry_target_frame_sem k d e)));
        Spec.make "walk" (fun d args ->
            let* root, va = M.arg2 args in
            let* w = walk_sem k d root va in
            Ok (d, walk_out_value w));
      ]
  @ l "WalkAlloc"
      [
        Spec.make "walk_alloc" (fun d args ->
            let* root, va = M.arg2 args in
            let* d, status, frame = walk_alloc_sem k d root va in
            Ok (d, M.strukt [ M.u64 status; M.u64 frame ]));
      ]
  @ l "PtMap"
      [
        Spec.make "map_page" (fun d args ->
            let* root, va, pa, flags = M.arg4 args in
            let* d, status = map_page_sem k d root va pa flags in
            Ok (d, M.u64 status));
        Spec.make "unmap_page" (fun d args ->
            let* root, va = M.arg2 args in
            let* d, status = unmap_page_sem k d root va in
            Ok (d, M.u64 status));
      ]
  @ l "PtQuery"
      [
        Spec.make "query" (fun d args ->
            let* root, va = M.arg2 args in
            let* q = query_sem k d root va in
            Ok (d, query_out_value q));
        Spec.make "translate" (fun d args ->
            let* root, va = M.arg2 args in
            let* q = query_sem k d root va in
            if Int64.equal q.q_present 0L then Ok (d, query_out_value q)
            else
              Ok
                ( d,
                  query_out_value
                    { q with q_pa = q.q_pa |% page_offset k va } ));
      ]
  @ l "AddrSpace"
      [
        Spec.make "as_create" (fun d args ->
            match args with
            | [] ->
                let* d, f = create_table_sem k d in
                if Int64.equal f k.nframes then
                  Ok (d, M.strukt [ M.u64 nomem; M.u64 0L ])
                else Ok (d, M.strukt [ M.u64 ok_; M.u64 f ])
            | _ -> Error "as_create takes no arguments");
        Spec.make "map_range_one" (fun d args ->
            let* root, va, pa, flags = M.arg4 args in
            let* d, status = map_page_sem k d root va pa flags in
            Ok (d, M.u64 status));
        Spec.make "map_range" (fun d args ->
            match args with
            | [ root; va; pa; pages; flags ] ->
                let* root, _ = Mir.Value.as_word root in
                let* va, _ = Mir.Value.as_word va in
                let* pa, _ = Mir.Value.as_word pa in
                let* pages, _ = Mir.Value.as_word pages in
                let* flags, _ = Mir.Value.as_word flags in
                let* d, status = map_range_sem k d root va pa pages flags in
                Ok (d, M.u64 status)
            | _ -> Error "map_range expects 5 arguments");
      ]
  @ l "Epcm"
      [
        Spec.make "epcm_find_free" (fun d args ->
            match args with
            | [] ->
                let* i = epcm_find_free_sem k d in
                Ok (d, M.u64 i)
            | _ -> Error "epcm_find_free takes no arguments");
        Spec.make "epcm_set_valid" (fun d args ->
            let* page, eid, va = M.arg3 args in
            let* d, status = epcm_set_valid_sem k d page eid va in
            Ok (d, M.u64 status));
        Spec.make "epcm_clear" (fun d args ->
            let* page = M.arg1 args in
            let* d, status = epcm_clear_sem k d page in
            Ok (d, M.u64 status));
        pure1 "epc_page_addr" (fun page -> M.u64 (epc_page_addr_sem k page));
        Spec.make "epc_page_zero" (fun d args ->
            let* page = M.arg1 args in
            let* d = epc_page_zero_sem k d page in
            Ok (d, M.unit_v));
      ]
  @ l "MarshBuf"
      [
        Spec.make "mbuf_map_one" (fun d args ->
            let* gpt, ept, va, hpa = M.arg4 args in
            let* d, status = mbuf_map_one_sem k d gpt ept va hpa in
            Ok (d, M.u64 status));
        Spec.make "mbuf_map" (fun d args ->
            let* gpt, ept, mbuf_va = M.arg3 args in
            let* d, status = mbuf_map_sem k d gpt ept mbuf_va in
            Ok (d, M.u64 status));
      ]
  @ l "EnclaveMem"
      [
        Spec.make "Enclave::in_elrange" (fun d args ->
            match args with
            | [ self; va ] ->
                let* e = decode_enclave self in
                let* va, _ = Mir.Value.as_word va in
                Ok (d, M.of_bool (in_elrange_sem k e va))
            | _ -> Error "in_elrange expects (self, va)");
        Spec.make "Enclave::add_page" (fun d args ->
            match args with
            | [ self; va ] ->
                let* e = decode_enclave self in
                let* va, _ = Mir.Value.as_word va in
                let* d, status = add_page_sem k d e va in
                Ok (d, M.u64 status)
            | _ -> Error "add_page expects (self, va)");
        Spec.make "Enclave::remove_page" (fun d args ->
            match args with
            | [ self; va ] ->
                let* e = decode_enclave self in
                let* va, _ = Mir.Value.as_word va in
                let* d, status = remove_page_sem k d e va in
                Ok (d, M.u64 status)
            | _ -> Error "remove_page expects (self, va)");
      ]
  @ l "Hypercalls"
      [
        Spec.make "ranges_disjoint" (fun d args ->
            let* b1, p1, b2, p2 = M.arg4 args in
            Ok (d, M.of_bool (ranges_disjoint_sem k b1 p1 b2 p2)));
        pure2 "range_ok" (fun base pages -> M.of_bool (range_ok_sem k base pages));
        Spec.make "hc_create" (fun d args ->
            let* elrange_base, elrange_pages, mbuf_va = M.arg3 args in
            let* d, status, gpt, ept = hc_create_sem k d elrange_base elrange_pages mbuf_va in
            Ok (d, M.strukt [ M.u64 status; M.u64 gpt; M.u64 ept ]));
      ]

(* The specs of a layout and their lookups, built once per layout on
   first use and never mutated afterwards. *)
type index = {
  k : k;
  specs : t list;
  by_name : (string, t) Hashtbl.t;
  by_layer : (string, string list) Hashtbl.t;  (* spec order *)
}

let build_index layout =
  let k = konst layout in
  let specs = build_all k in
  let by_name = Hashtbl.create 64 and by_layer = Hashtbl.create 16 in
  List.iter
    (fun t ->
      (* the first spec of a name wins, as a scan of [specs] would find *)
      if not (Hashtbl.mem by_name t.spec.Spec.name) then
        Hashtbl.add by_name t.spec.Spec.name t;
      let names = Option.value ~default:[] (Hashtbl.find_opt by_layer t.layer) in
      Hashtbl.replace by_layer t.layer (t.spec.Spec.name :: names))
    specs;
  Hashtbl.filter_map_inplace (fun _ names -> Some (List.rev names)) by_layer;
  { k; specs; by_name; by_layer }

let indexes : (Layout.t, index) Hashtbl.t = Hashtbl.create 4

(* The last layout asked for and its index: callers pass the same
   [Layout.t] value over and over (every hypercall and page-table
   mutator step), so a physical-equality check spares them hashing and
   comparing the whole record.  The engine runs on one domain. *)
let last : (Layout.t * index) option ref = ref None

let index layout =
  match !last with
  | Some (l, ix) when l == layout -> ix
  | _ ->
      let ix =
        match Hashtbl.find_opt indexes layout with
        | Some ix -> ix
        | None ->
            let ix = build_index layout in
            Hashtbl.add indexes layout ix;
            ix
      in
      last := Some (layout, ix);
      ix

let all layout = (index layout).specs
let lookup layout name = Hashtbl.find_opt (index layout).by_name name
let find layout name = Option.map (fun t -> t.spec) (lookup layout name)

let functions_of_layer layout layer =
  Option.value ~default:[] (Hashtbl.find_opt (index layout).by_layer layer)

(* ------------------------------------------------------------------ *)
(* The semantics on unencoded arguments, for the OCaml model           *)

let k_of (d : Absdata.t) = (index d.Absdata.layout).k
let create_table d = create_table_sem (k_of d) d
let map_page d ~root ~va ~pa ~flags = map_page_sem (k_of d) d root va pa flags
let unmap_page d ~root ~va = unmap_page_sem (k_of d) d root va

let hc_create d ~elrange_base ~elrange_pages ~mbuf_va =
  hc_create_sem (k_of d) d elrange_base elrange_pages mbuf_va

let add_page d e ~va = add_page_sem (k_of d) d (encl_of_enclave e) va
let remove_page d e ~va = remove_page_sem (k_of d) d (encl_of_enclave e) va
