(* Tests for the HyperEnclave substrate: geometry, entries, flat and
   tree page tables, the refinement relation, boot and hypercalls. *)

open Hyperenclave
module Word = Mir.Word

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (msg : string) -> msg

let tiny = Geometry.tiny
let tiny_layout = Layout.default tiny
let page = Geometry.page_size tiny
let pageL = Int64.of_int page

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let test_geometry_constants () =
  Alcotest.(check int) "x86 entries" 512 (Geometry.entries_per_table Geometry.x86_64);
  Alcotest.(check int) "x86 page" 4096 (Geometry.page_size Geometry.x86_64);
  Alcotest.(check int) "x86 va bits" 48 (Geometry.va_bits Geometry.x86_64);
  Alcotest.(check int) "tiny entries" 4 (Geometry.entries_per_table tiny);
  Alcotest.(check int) "tiny page" 32 (Geometry.page_size tiny);
  Alcotest.(check int) "tiny va bits" 9 (Geometry.va_bits tiny)

let test_geometry_va_index () =
  (* x86-64: va = l4 idx 1, l3 idx 2, l2 idx 3, l1 idx 4, offset 5 *)
  let va =
    Int64.logor
      (Int64.logor
         (Int64.shift_left 1L (12 + 27))
         (Int64.shift_left 2L (12 + 18)))
      (Int64.logor
         (Int64.logor (Int64.shift_left 3L (12 + 9)) (Int64.shift_left 4L 12))
         5L)
  in
  let g = Geometry.x86_64 in
  Alcotest.(check int) "l4" 1 (Geometry.va_index g ~level:4 va);
  Alcotest.(check int) "l3" 2 (Geometry.va_index g ~level:3 va);
  Alcotest.(check int) "l2" 3 (Geometry.va_index g ~level:2 va);
  Alcotest.(check int) "l1" 4 (Geometry.va_index g ~level:1 va);
  Alcotest.(check int64) "offset" 5L (Geometry.page_offset g va)

let test_geometry_make_validation () =
  (match Geometry.make ~levels:0 ~index_bits:9 ~fb_present:0 ~fb_write:1 ~fb_user:2 ~fb_huge:7 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "0 levels accepted");
  (match Geometry.make ~levels:4 ~index_bits:9 ~fb_present:0 ~fb_write:0 ~fb_user:2 ~fb_huge:7 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate flag bits accepted");
  match Geometry.make ~levels:4 ~index_bits:9 ~fb_present:0 ~fb_write:1 ~fb_user:2 ~fb_huge:12 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flag bit in address field accepted"

(* ------------------------------------------------------------------ *)
(* Flags / Pte                                                         *)

let prop_flags_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"flags encode/decode roundtrip"
    (QCheck2.Gen.oneofl (List.concat_map (fun g -> List.map (fun f -> (g, f)) Flags.all)
                           [ Geometry.x86_64; tiny ]))
    (fun (g, f) -> Flags.equal f (Flags.decode g (Flags.encode g f)))

let prop_pte_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"pte make/addr/flags roundtrip"
    QCheck2.Gen.(pair ui64 (oneofl Flags.all))
    (fun (raw, f) ->
      let g = Geometry.x86_64 in
      (* page-aligned pa within the 57-bit space *)
      let pa = Word.shift_left Word.W64 (Word.extract raw ~lo:12 ~len:45) 12 in
      let e = Pte.make g ~pa f in
      Word.equal (Pte.addr g e) pa && Flags.equal (Pte.flags g e) f)

let test_pte_flag_bits () =
  let g = Geometry.x86_64 in
  let e = Pte.make g ~pa:0x1000L Flags.user_rw in
  Alcotest.(check bool) "present bit 0" true (Word.bit e 0);
  Alcotest.(check bool) "write bit 1" true (Word.bit e 1);
  Alcotest.(check bool) "user bit 2" true (Word.bit e 2);
  Alcotest.(check bool) "huge bit 7 clear" false (Word.bit e 7);
  Alcotest.(check bool) "addr" true (Word.equal (Pte.addr g e) 0x1000L);
  let h = Pte.make g ~pa:0x20_0000L (Flags.with_huge Flags.present_rw) in
  Alcotest.(check bool) "huge bit 7" true (Word.bit h 7)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let test_layout_regions () =
  let l = tiny_layout in
  Alcotest.(check bool) "addr 0 normal" true
    (Layout.region_equal (Layout.region_of l 0L) Layout.Normal);
  Alcotest.(check bool) "mbuf detected" true
    (Layout.region_equal (Layout.region_of l l.Layout.mbuf_base) Layout.Mbuf);
  Alcotest.(check bool) "frame area" true
    (Layout.region_equal (Layout.region_of l l.Layout.frame_base) Layout.Frame_area);
  Alcotest.(check bool) "epc" true
    (Layout.region_equal (Layout.region_of l l.Layout.epc_base) Layout.Epc);
  Alcotest.(check bool) "outside" true
    (Layout.region_equal (Layout.region_of l (Layout.phys_limit l)) Layout.Outside);
  Alcotest.(check bool) "secure epc" true (Layout.in_secure l l.Layout.epc_base);
  Alcotest.(check bool) "mbuf not secure" false (Layout.in_secure l l.Layout.mbuf_base)

let test_layout_frame_index_inverse () =
  let l = tiny_layout in
  for i = 0 to l.Layout.frame_count - 1 do
    match Layout.frame_index l (Layout.frame_addr l i) with
    | Some j -> Alcotest.(check int) "frame roundtrip" i j
    | None -> Alcotest.failf "frame %d not recognized" i
  done;
  Alcotest.(check (option int)) "unaligned rejected" None
    (Layout.frame_index l (Int64.add l.Layout.frame_base 8L))

(* Sign-boundary regression: addresses at and above
   0x8000_0000_0000_0000 have the Int64 sign bit set.  A signed
   comparison or division anywhere under [region_of] /
   [frame_index] / [epc_page_index] would order the upper half of the
   address space below every region base (or produce a negative
   index); unsigned arithmetic must classify them as far outside. *)
let test_layout_sign_boundary () =
  let l = tiny_layout in
  List.iter
    (fun addr ->
      Alcotest.(check bool)
        (Printf.sprintf "0x%Lx is outside every region" addr)
        true
        (Layout.region_equal (Layout.region_of l addr) Layout.Outside);
      Alcotest.(check (option int))
        (Printf.sprintf "0x%Lx has no frame index" addr)
        None (Layout.frame_index l addr);
      Alcotest.(check (option int))
        (Printf.sprintf "0x%Lx has no epc index" addr)
        None (Layout.epc_page_index l addr);
      Alcotest.(check bool)
        (Printf.sprintf "0x%Lx is not secure" addr)
        false (Layout.in_secure l addr))
    [ 0x8000_0000_0000_0000L; 0xFFFF_FFFF_FFFF_F000L; 0xFFFF_FFFF_FFFF_FFFFL ];
  (* and the epc index arithmetic round-trips end-to-end, last page
     included, mirroring the frame-area check above *)
  for i = 0 to l.Layout.epc_pages - 1 do
    Alcotest.(check (option int)) "epc roundtrip" (Some i)
      (Layout.epc_page_index l (Layout.epc_page_addr l i))
  done

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)

let test_phys_mem_rw () =
  let m = Phys_mem.create ~limit:0x1000L in
  Alcotest.(check int64) "reads zero" 0L (ok "read" (Phys_mem.read64 m 0x10L));
  let m = ok "write" (Phys_mem.write64 m 0x10L 0xABCDL) in
  Alcotest.(check int64) "written" 0xABCDL (ok "read" (Phys_mem.read64 m 0x10L));
  let _ = err "unaligned" (Phys_mem.read64 m 0x11L) in
  let _ = err "oob" (Phys_mem.read64 m 0x1000L) in
  let m2 = ok "zero" (Phys_mem.zero_range m 0x10L ~bytes_len:8) in
  Alcotest.(check int64) "zeroed" 0L (ok "read" (Phys_mem.read64 m2 0x10L));
  Alcotest.(check bool) "equal_range differs" false (Phys_mem.equal_range m m2 0x10L ~bytes_len:8);
  Alcotest.(check bool) "equal_range same elsewhere" true
    (Phys_mem.equal_range m m2 0x20L ~bytes_len:16)

let test_phys_mem_copy () =
  let m = Phys_mem.create ~limit:0x1000L in
  let m = ok "w1" (Phys_mem.write64 m 0x100L 1L) in
  let m = ok "w2" (Phys_mem.write64 m 0x108L 2L) in
  let m = ok "copy" (Phys_mem.copy_range m ~src:0x100L ~dst:0x200L ~bytes_len:16) in
  Alcotest.(check int64) "copied 1" 1L (ok "r" (Phys_mem.read64 m 0x200L));
  Alcotest.(check int64) "copied 2" 2L (ok "r" (Phys_mem.read64 m 0x208L))

(* ------------------------------------------------------------------ *)
(* Frame_alloc / Epcm                                                  *)

let test_frame_alloc () =
  let a = Frame_alloc.create ~nframes:3 in
  let a, f0 = ok "alloc" (Frame_alloc.alloc a) in
  let a, f1 = ok "alloc" (Frame_alloc.alloc a) in
  Alcotest.(check (pair int int)) "lowest first" (0, 1) (f0, f1);
  let a = ok "free" (Frame_alloc.free a 0) in
  let a, f2 = ok "alloc" (Frame_alloc.alloc a) in
  Alcotest.(check int) "reuses lowest" 0 f2;
  let _ = err "double free" (Frame_alloc.free a 1 |> fun r -> Result.bind r (fun a -> Frame_alloc.free a 1)) in
  let a, f3 = ok "alloc" (Frame_alloc.alloc a) in
  Alcotest.(check int) "last frame" 2 f3;
  let _ = err "exhausted" (Frame_alloc.alloc a) in
  ()

let test_frame_alloc_error_paths () =
  let a = Frame_alloc.create ~nframes:5 in
  (* frees that must fail leave the allocator observably unchanged *)
  let msg = err "free of never-allocated frame" (Frame_alloc.free a 3) in
  Alcotest.(check bool) "mentions the frame" true (contains msg "3");
  let _ = err "out-of-range free" (Frame_alloc.free a 5) in
  let _ = err "negative free" (Frame_alloc.free a (-1)) in
  let a, f = ok "alloc" (Frame_alloc.alloc a) in
  let a' = ok "free" (Frame_alloc.free a f) in
  let _ = err "double free" (Frame_alloc.free a' f) in
  Alcotest.(check int) "error paths allocated nothing" 1 (Frame_alloc.allocated_count a)

let test_frame_alloc_bitmap_words () =
  let a = Frame_alloc.create ~nframes:5 in
  Alcotest.(check int) "one word for 5 frames" 1 (Frame_alloc.bitmap_words a);
  let w = ok "bitmap_word" (Frame_alloc.bitmap_word a 0) in
  Alcotest.(check int64) "fresh bitmap empty" 0L w;
  let _ = err "word index out of range" (Frame_alloc.bitmap_word a 1) in
  (* bit 5 is the first bit beyond nframes=5: must be rejected *)
  let _ = err "bits beyond nframes" (Frame_alloc.set_bitmap_word a 0 0x20L) in
  let _ = err "all bits set" (Frame_alloc.set_bitmap_word a 0 (-1L)) in
  let a = ok "valid word" (Frame_alloc.set_bitmap_word a 0 0x15L) in
  Alcotest.(check (list int)) "word round-trips to frames" [ 0; 2; 4 ]
    (Frame_alloc.allocated_list a);
  Alcotest.(check int64) "readback" 0x15L (ok "bitmap_word" (Frame_alloc.bitmap_word a 0))

let test_frame_alloc_exhaust_recover () =
  let a = ref (Frame_alloc.create ~nframes:8) in
  for i = 0 to 7 do
    let a', f = ok "alloc" (Frame_alloc.alloc !a) in
    Alcotest.(check int) "in order" i f;
    a := a'
  done;
  Alcotest.(check int) "pool drained" 0 (Frame_alloc.free_count !a);
  let _ = err "exhausted" (Frame_alloc.alloc !a) in
  let _ = err "still exhausted" (Frame_alloc.alloc !a) in
  (* freeing any frame makes exactly that frame allocatable again *)
  a := ok "free" (Frame_alloc.free !a 5);
  let a', f = ok "alloc after recover" (Frame_alloc.alloc !a) in
  Alcotest.(check int) "recovered frame" 5 f;
  let _ = err "exhausted again" (Frame_alloc.alloc a') in
  ()

let test_epcm () =
  let m = Epcm.create ~npages:4 in
  Alcotest.(check (option int)) "first free" (Some 0) (Epcm.find_free m);
  let m = ok "set" (Epcm.set m 0 (Epcm.Valid { eid = 7; va = 0x40L })) in
  let m = ok "set" (Epcm.set m 2 (Epcm.Valid { eid = 7; va = 0x60L })) in
  Alcotest.(check (option int)) "next free skips" (Some 1) (Epcm.find_free m);
  Alcotest.(check int) "valid count" 2 (Epcm.valid_count m);
  Alcotest.(check int) "pages of enclave" 2 (List.length (Epcm.pages_of_enclave m 7));
  Alcotest.(check int) "pages of other" 0 (List.length (Epcm.pages_of_enclave m 8));
  let _ = err "oob" (Epcm.get m 4) in
  ()

(* ------------------------------------------------------------------ *)
(* The kernel against its reference models                             *)

module R = Reference

let x86_layout = Layout.default Geometry.x86_64

let same_result eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error e, Error f -> String.equal e f
  | Ok _, Error _ | Error _, Ok _ -> false

let show_result show = function Ok x -> "Ok " ^ show x | Error e -> "Error " ^ e
let show_words ws = String.concat "," (List.map (Printf.sprintf "%Lx") ws)

let show_pairs ps =
  String.concat "," (List.map (fun (a, v) -> Printf.sprintf "%Lx=%Lx" a v) ps)

let same_contents m r = Phys_mem.nonzero_words m = R.Phys_mem.nonzero_words r

(* Addresses around a memory of [limit]: hot aligned words near 0 and
   the limit (so writes collide), unaligned ones, the limit itself,
   words beyond it, the top half of the address space, and anywhere. *)
let pick_addr rng limit =
  let hot =
    [| 0L; 8L; 16L; 24L; 32L; 0x100L; Int64.sub limit 8L; Int64.sub limit 16L;
       Int64.sub limit 32L |]
  in
  let any_hot () = hot.(Random.State.int rng (Array.length hot)) in
  match Random.State.int rng 12 with
  | 0 -> Int64.add (any_hot ()) (Int64.of_int (1 + Random.State.int rng 7))
  | 1 -> limit
  | 2 -> Int64.add limit (Int64.of_int (8 * (1 + Random.State.int rng 4)))
  | 3 -> Int64.logor Int64.min_int (Int64.of_int (8 * Random.State.int rng 4))
  | 4 -> Int64.of_int (8 * Random.State.int rng (Int64.to_int limit / 8))
  | _ -> any_hot ()

(* Range lengths: short and page-sized multiples of 8, zero, negative,
   unaligned; a limit-straddling range is a hot address near the limit
   with any of these. *)
let pick_len rng page =
  match Random.State.int rng 8 with
  | 0 -> 0
  | 1 -> -8 * (1 + Random.State.int rng 2)
  | 2 -> 1 + Random.State.int rng 30
  | 3 -> page
  | _ -> 8 * (1 + Random.State.int rng 8)

let pick_value rng =
  let values = [| 0L; 0L; 0L; 1L; -1L; 0xABCDL; Int64.min_int |] in
  values.(Random.State.int rng (Array.length values))

(* One seeded operation on the kernel and the reference; fails on the
   first result that differs.  Returns the next pair of memories. *)
let phys_step rng ~limit ~page ~label (m, r) (m0, r0) =
  let fail what show_k show_r =
    Alcotest.failf "%s: %s: kernel %s, reference %s" label what show_k show_r
  in
  let check_mem what km rm =
    if not (same_result (fun _ _ -> true) km rm) then
      fail what (show_result (fun _ -> "mem") km) (show_result (fun _ -> "mem") rm);
    match (km, rm) with
    | Ok m', Ok r' ->
        if not (same_contents m' r') then
          fail what
            (show_pairs (Phys_mem.nonzero_words m'))
            (show_pairs (R.Phys_mem.nonzero_words r'));
        (m', r')
    | _ -> (m, r)
  in
  let addr = pick_addr rng limit in
  match Random.State.int rng 8 with
  | 0 ->
      let k = Phys_mem.read64 m addr and rf = R.Phys_mem.read64 r addr in
      if not (same_result Int64.equal k rf) then
        fail (Printf.sprintf "read64 %Lx" addr) (show_result Int64.to_string k)
          (show_result Int64.to_string rf);
      (m, r)
  | 1 | 2 ->
      let v = pick_value rng in
      check_mem (Printf.sprintf "write64 %Lx %Lx" addr v) (Phys_mem.write64 m addr v)
        (R.Phys_mem.write64 r addr v)
  | 3 ->
      let n = pick_len rng page in
      check_mem (Printf.sprintf "zero_range %Lx %d" addr n)
        (Phys_mem.zero_range m addr ~bytes_len:n) (R.Phys_mem.zero_range r addr ~bytes_len:n)
  | 4 ->
      let dst = pick_addr rng limit and n = pick_len rng page in
      check_mem (Printf.sprintf "copy_range %Lx -> %Lx %d" addr dst n)
        (Phys_mem.copy_range m ~src:addr ~dst ~bytes_len:n)
        (R.Phys_mem.copy_range r ~src:addr ~dst ~bytes_len:n)
  | 5 ->
      let n = pick_len rng page in
      let k = Phys_mem.equal_range m m0 addr ~bytes_len:n
      and rf = R.Phys_mem.equal_range r r0 addr ~bytes_len:n in
      if k <> rf then
        fail (Printf.sprintf "equal_range %Lx %d" addr n) (string_of_bool k) (string_of_bool rf);
      (m, r)
  | 6 ->
      (* read_words against a loop of reference reads *)
      let count = pick_len rng page / 8 in
      let rec loop i acc =
        if i >= count then Ok (List.rev acc)
        else
          match R.Phys_mem.read64 r (Int64.add addr (Int64.of_int (8 * i))) with
          | Ok v -> loop (i + 1) (v :: acc)
          | Error e -> Error e
      in
      let k = Phys_mem.read_words m addr ~count and rf = loop 0 [] in
      if not (same_result ( = ) k rf) then
        fail (Printf.sprintf "read_words %Lx %d" addr count) (show_result show_words k)
          (show_result show_words rf);
      (m, r)
  | _ ->
      (* fold_nonzero_range over an aligned range against a filter *)
      let addr = Int64.logand addr (Int64.lognot 7L) in
      let n = abs (pick_len rng page) land lnot 7 in
      let inside a = Word.le_u addr a && Word.lt_u (Int64.sub a addr) (Int64.of_int n) in
      let k =
        List.rev (Phys_mem.fold_nonzero_range m addr ~bytes_len:n (fun a v acc -> (a, v) :: acc) [])
      and rf = List.filter (fun (a, _) -> inside a) (R.Phys_mem.nonzero_words r) in
      if k <> rf then
        fail (Printf.sprintf "fold_nonzero_range %Lx %d" addr n) (show_pairs k) (show_pairs rf);
      (m, r)

let run_phys ~seed ~steps layout =
  let limit = Layout.phys_limit layout and page = Geometry.page_size layout.Layout.geom in
  let rng = Random.State.make [| seed |] in
  let label = Printf.sprintf "phys seed %d" seed in
  let start = (Phys_mem.create ~limit, R.Phys_mem.create ~limit) in
  let rec go i cur ((m0, r0) as snap) =
    if i < steps then begin
      let m', r' = phys_step rng ~limit ~page ~label cur snap in
      (* the whole-value observers agree as well *)
      if Phys_mem.equal m' m0 <> R.Phys_mem.equal r' r0 then
        Alcotest.failf "%s: equal disagrees at step %d" label i;
      let folded = List.rev (Phys_mem.fold_nonzero (fun a v acc -> (a, v) :: acc) m' []) in
      if folded <> R.Phys_mem.nonzero_words r' then
        Alcotest.failf "%s: fold_nonzero out of address order at step %d" label i;
      go (i + 1) (m', r') (if i mod 16 = 0 then (m', r') else snap)
    end
  in
  go 0 start start

let test_phys_mem_reference () =
  List.iter (fun seed -> run_phys ~seed ~steps:3000 tiny_layout) [ 1; 2; 3 ];
  List.iter (fun seed -> run_phys ~seed ~steps:1500 x86_layout) [ 4; 5 ]

(* Frames on either side of the representation's word boundaries (64
   per bitmap word, 62 or 63 per native int), the ends of the pool and
   beyond them. *)
let pick_frame rng nframes =
  let edges = [ 0; 1; 61; 62; 63; 64; 65; 123; 124; 125; 126; 127; 128; 1023 ] in
  let edges = List.filter (fun i -> i < nframes) edges @ [ nframes - 1; nframes; -1 ] in
  if Random.State.int rng 3 = 0 then Random.State.int rng nframes
  else List.nth edges (Random.State.int rng (List.length edges))

let pick_bitmap_value rng used =
  let pool_bits = if used >= 64 then -1L else Int64.sub (Int64.shift_left 1L used) 1L in
  match Random.State.int rng 5 with
  | 0 -> -1L (* bits beyond the pool, unless it fills the word *)
  | 1 -> 0L
  | 2 -> pool_bits
  | _ -> Int64.logand pool_bits (Random.State.bits64 rng)

let same_alloc a r =
  Frame_alloc.allocated_list a = R.Frame_alloc.allocated_list r
  && Frame_alloc.allocated_count a = R.Frame_alloc.allocated_count r
  && Frame_alloc.free_count a = R.Frame_alloc.free_count r
  && Frame_alloc.bitmap_words a = R.Frame_alloc.bitmap_words r

let alloc_step rng ~nframes ~label (a, r) =
  let fail what k rf = Alcotest.failf "%s: %s: kernel %s, reference %s" label what k rf in
  let next what ka ra =
    if not (same_result (fun _ _ -> true) ka ra) then
      fail what (show_result (fun _ -> "alloc") ka) (show_result (fun _ -> "alloc") ra);
    match (ka, ra) with
    | Ok a', Ok r' ->
        if not (same_alloc a' r') then
          fail what
            (String.concat "," (List.map string_of_int (Frame_alloc.allocated_list a')))
            (String.concat "," (List.map string_of_int (R.Frame_alloc.allocated_list r')));
        (a', r')
    | _ -> (a, r)
  in
  let nwords = (nframes + 63) / 64 in
  match Random.State.int rng 6 with
  | 0 | 1 -> (
      match (Frame_alloc.alloc a, R.Frame_alloc.alloc r) with
      | Ok (a', i), Ok (r', j) ->
          if i <> j then fail "alloc" (string_of_int i) (string_of_int j);
          next "alloc" (Ok a') (Ok r')
      | ka, ra -> next "alloc" (Result.map fst ka) (Result.map fst ra))
  | 2 ->
      let i = pick_frame rng nframes in
      next (Printf.sprintf "free %d" i) (Frame_alloc.free a i) (R.Frame_alloc.free r i)
  | 3 ->
      let i = pick_frame rng nframes in
      if Frame_alloc.is_allocated a i <> R.Frame_alloc.is_allocated r i then
        fail (Printf.sprintf "is_allocated %d" i) "" "";
      (a, r)
  | 4 ->
      let w = Random.State.int rng (nwords + 2) - 1 in
      let k = Frame_alloc.bitmap_word a w and rf = R.Frame_alloc.bitmap_word r w in
      if not (same_result Int64.equal k rf) then
        fail (Printf.sprintf "bitmap_word %d" w) (show_result Int64.to_string k)
          (show_result Int64.to_string rf);
      (a, r)
  | _ ->
      let w = Random.State.int rng (nwords + 2) - 1 in
      let v = pick_bitmap_value rng (nframes - (64 * w)) in
      next
        (Printf.sprintf "set_bitmap_word %d %Lx" w v)
        (Frame_alloc.set_bitmap_word a w v) (R.Frame_alloc.set_bitmap_word r w v)

let run_alloc ~seed ~steps nframes =
  let rng = Random.State.make [| seed |] in
  let label = Printf.sprintf "frame_alloc seed %d (%d frames)" seed nframes in
  let start = (Frame_alloc.create ~nframes, R.Frame_alloc.create ~nframes) in
  let rec go i cur (a0, r0) =
    if i < steps then begin
      let a', r' = alloc_step rng ~nframes ~label cur in
      if Frame_alloc.equal a' a0 <> R.Frame_alloc.equal r' r0 then
        Alcotest.failf "%s: equal disagrees at step %d" label i;
      go (i + 1) (a', r') (if i mod 16 = 0 then (a', r') else (a0, r0))
    end
  in
  go 0 start start

(* The allocator in order across word boundaries: fill 130 frames, free
   the frames around the boundaries, then refill and drain the pool. *)
let test_alloc_boundaries nframes =
  let label = Printf.sprintf "boundaries (%d frames)" nframes in
  let cur = ref (Frame_alloc.create ~nframes, R.Frame_alloc.create ~nframes) in
  let alloc () =
    let a, r = !cur in
    match (Frame_alloc.alloc a, R.Frame_alloc.alloc r) with
    | Ok (a', i), Ok (r', j) ->
        if i <> j then Alcotest.failf "%s: alloc gave %d, reference %d" label i j;
        cur := (a', r')
    | Error e, Error f when String.equal e f -> ()
    | k, rf ->
        Alcotest.failf "%s: alloc %s, reference %s" label
          (show_result (fun (_, i) -> string_of_int i) k)
          (show_result (fun (_, i) -> string_of_int i) rf)
  in
  let free i =
    let a, r = !cur in
    match (Frame_alloc.free a i, R.Frame_alloc.free r i) with
    | Ok a', Ok r' -> cur := (a', r')
    | Error e, Error f when String.equal e f -> ()
    | _ -> Alcotest.failf "%s: free %d disagrees" label i
  in
  for _ = 1 to min nframes 130 do alloc () done;
  List.iter free [ 61; 62; 63; 64; 123; 124; 125; 126; 127; 128; 0 ];
  for _ = 1 to nframes + 2 do alloc () done;
  free (nframes - 1);
  alloc ();
  let a, r = !cur in
  if not (same_alloc a r) then Alcotest.failf "%s: allocators differ" label

let test_frame_alloc_reference () =
  List.iter (fun seed -> run_alloc ~seed ~steps:2000 24) [ 1; 2 ];
  List.iter (fun seed -> run_alloc ~seed ~steps:3000 1024) [ 3; 4 ];
  (* pools whose last bitmap word is 63, 64 and 2 bits wide *)
  List.iter
    (fun (seed, nframes) -> run_alloc ~seed ~steps:2000 nframes)
    [ (5, 127); (6, 128); (7, 130) ];
  List.iter test_alloc_boundaries [ 24; 63; 64; 127; 130; 1024 ]

(* Canonical values: short sequences over a few addresses, values and
   frames reach the same contents by different histories.  Whenever the
   reference calls two results equal, so must the kernel, and
   [Absdata.hash] must agree; whenever it does not, neither may the
   kernel. *)
let test_kernel_canonical () =
  let check_layout layout =
    let limit = Layout.phys_limit layout and nframes = layout.Layout.frame_count in
    let base = Absdata.create layout in
    let addrs = [| 0L; 8L; Int64.sub limit 8L |] and frames = [| 0; 1; nframes - 1 |] in
    let run seed =
      let rng = Random.State.make [| seed |] in
      let rec go n m r a ra =
        if n = 0 then ((m, r), (a, ra))
        else
          let addr = addrs.(Random.State.int rng 3) and v = Int64.of_int (Random.State.int rng 2) in
          let m = ok "write" (Phys_mem.write64 m addr v)
          and r = ok "ref write" (R.Phys_mem.write64 r addr v) in
          let a, ra =
            if Random.State.bool rng then
              match (Frame_alloc.alloc a, R.Frame_alloc.alloc ra) with
              | Ok (a, _), Ok (ra, _) -> (a, ra)
              | _ -> (a, ra)
            else
              let i = frames.(Random.State.int rng 3) in
              match (Frame_alloc.free a i, R.Frame_alloc.free ra i) with
              | Ok a, Ok ra -> (a, ra)
              | _ -> (a, ra)
          in
          go (n - 1) m r a ra
      in
      go (1 + Random.State.int rng 6) (Phys_mem.create ~limit) (R.Phys_mem.create ~limit)
        (Frame_alloc.create ~nframes) (R.Frame_alloc.create ~nframes)
    in
    let results = List.init 60 run in
    let abs ((m, _), (a, _)) = { base with Absdata.phys = m; falloc = a } in
    List.iteri
      (fun i x ->
        List.iteri
          (fun j y ->
            let ((m1, r1), (a1, ra1)) = x and ((m2, r2), (a2, ra2)) = y in
            let ref_phys = R.Phys_mem.equal r1 r2 and ref_alloc = R.Frame_alloc.equal ra1 ra2 in
            if Phys_mem.equal m1 m2 <> ref_phys then
              Alcotest.failf "sequences %d and %d: Phys_mem.equal %b, reference %b" i j
                (not ref_phys) ref_phys;
            if Frame_alloc.equal a1 a2 <> ref_alloc then
              Alcotest.failf "sequences %d and %d: Frame_alloc.equal %b, reference %b" i j
                (not ref_alloc) ref_alloc;
            if ref_phys && ref_alloc then begin
              if not (Absdata.equal (abs x) (abs y)) then
                Alcotest.failf "sequences %d and %d: Absdata.equal differs" i j;
              if Absdata.hash (abs x) <> Absdata.hash (abs y) then
                Alcotest.failf "sequences %d and %d: equal states hash apart" i j
            end)
          results)
      results
  in
  check_layout tiny_layout;
  check_layout x86_layout

(* [Epcm.fold] and [find_free] walk the owned pages only; they must
   still see every page, [Free] ones included, as a scan of [get]
   does. *)
let test_epcm_walks () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun npages ->
      let m = ref (Epcm.create ~npages) in
      for step = 1 to 400 do
        let i = Random.State.int rng npages in
        let st =
          if Random.State.int rng 3 = 0 then Epcm.Free
          else Epcm.Valid { eid = 1 + Random.State.int rng 3; va = Int64.of_int (8 * i) }
        in
        m := ok "set" (Epcm.set !m i st);
        let scan = List.init npages (fun i -> (i, ok "get" (Epcm.get !m i))) in
        let folded = List.rev (Epcm.fold (fun i st acc -> (i, st) :: acc) !m []) in
        if not (List.equal (fun (i, a) (j, b) -> i = j && Epcm.page_state_equal a b) scan folded)
        then Alcotest.failf "%d pages, step %d: fold differs from a scan" npages step;
        let valid =
          List.filter_map
            (fun (i, st) ->
              match st with Epcm.Valid { eid; va } -> Some (i, eid, va) | Epcm.Free -> None)
            scan
        in
        if List.rev (Epcm.fold_valid (fun i ~eid ~va acc -> (i, eid, va) :: acc) !m []) <> valid
        then Alcotest.failf "%d pages, step %d: fold_valid differs from a scan" npages step;
        let first_free =
          List.find_map
            (fun (i, st) -> match st with Epcm.Free -> Some i | Epcm.Valid _ -> None)
            scan
        in
        Alcotest.(check (option int)) "find_free" first_free (Epcm.find_free !m)
      done)
    [ 1; 8; 70 ]

(* Zeroing a table costs in proportion to the nonzero words it clears:
   a 4 KiB x86-64 table holding k nonzero words, among 64 words
   elsewhere, is scrubbed within a small allocation bound, where a
   word-by-word loop allocates thousands of words for any k.
   Allocation is deterministic, unlike wall time. *)
let test_zero_range_allocation () =
  let limit = Layout.phys_limit x86_layout in
  let table = Layout.frame_addr x86_layout 5 in
  let elsewhere =
    List.init 64 (fun i -> Int64.add x86_layout.Layout.normal_base (Int64.of_int (4096 * i)))
  in
  List.iter
    (fun k ->
      let m =
        List.fold_left
          (fun m a -> ok "write" (Phys_mem.write64 m a 0x77L))
          (Phys_mem.create ~limit)
          (elsewhere
          @ List.init k (fun i -> Int64.add table (Int64.of_int (8 * ((i * 37) mod 512)))))
      in
      let before = Gc.minor_words () in
      let m' = ok "zero_range" (Phys_mem.zero_range m table ~bytes_len:4096) in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (Printf.sprintf "k=%d: the rest survives" k) 64
        (List.length (Phys_mem.nonzero_words m'));
      let bound = 200 + (16 * k) in
      if words > float_of_int bound then
        Alcotest.failf "zeroing a table holding %d words allocated %.0f words (bound %d)" k words
          bound)
    [ 0; 1; 8; 64 ]

(* ------------------------------------------------------------------ *)
(* Pt_flat on the tiny geometry                                        *)

let fresh_pt () =
  let d = Absdata.create tiny_layout in
  let d, root = ok "create_table" (Pt_flat.create_table d) in
  (d, root)

let va_of_pages n = Int64.mul pageL (Int64.of_int n)

let test_pt_flat_map_query () =
  let d, root = fresh_pt () in
  let va = va_of_pages 5 and pa = tiny_layout.Layout.epc_base in
  Alcotest.(check (option (pair int64 string))) "unmapped" None
    (ok "query" (Pt_flat.query d ~root ~va)
    |> Option.map (fun (p, f) -> (p, Flags.to_string f)));
  let d = ok "map" (Pt_flat.map_page d ~root ~va ~pa Flags.user_rw) in
  (match ok "query" (Pt_flat.query d ~root ~va) with
  | Some (p, f) ->
      Alcotest.(check int64) "pa" pa p;
      Alcotest.(check string) "flags" "PWU-" (Flags.to_string f)
  | None -> Alcotest.fail "mapped page not found");
  (* translate includes the offset *)
  (match ok "translate" (Pt_flat.translate d ~root ~va:(Int64.add va 17L)) with
  | Some (p, _) -> Alcotest.(check int64) "translated" (Int64.add pa 17L) p
  | None -> Alcotest.fail "translate failed");
  (* unrelated va still unmapped *)
  Alcotest.(check bool) "other va unmapped" true
    (ok "query2" (Pt_flat.query d ~root ~va:(va_of_pages 6)) = None);
  let _ = err "double map" (Pt_flat.map_page d ~root ~va ~pa Flags.user_rw) in
  let d = ok "unmap" (Pt_flat.unmap_page d ~root ~va) in
  Alcotest.(check bool) "unmapped again" true (ok "query3" (Pt_flat.query d ~root ~va) = None);
  let _ = err "double unmap" (Pt_flat.unmap_page d ~root ~va) in
  ()

let test_pt_flat_alignment_errors () =
  let d, root = fresh_pt () in
  let _ = err "va unaligned" (Pt_flat.map_page d ~root ~va:1L ~pa:0L Flags.user_rw) in
  let _ = err "pa unaligned" (Pt_flat.map_page d ~root ~va:0L ~pa:1L Flags.user_rw) in
  let _ =
    err "va out of range"
      (Pt_flat.map_page d ~root ~va:(Geometry.va_limit tiny) ~pa:0L Flags.user_rw)
  in
  let _ =
    err "non-present flags"
      (Pt_flat.map_page d ~root ~va:0L ~pa:0L Flags.none)
  in
  ()

let test_pt_flat_huge () =
  let d, root = fresh_pt () in
  (* tiny level 2 spans 4 pages *)
  let va = 0L and pa = tiny_layout.Layout.normal_base in
  let d = ok "map huge" (Pt_flat.map_huge d ~root ~va ~pa ~level:2 Flags.user_r) in
  (match ok "q" (Pt_flat.query d ~root ~va:(va_of_pages 3)) with
  | Some (p, f) ->
      Alcotest.(check int64) "third page of span" (va_of_pages 3) p;
      Alcotest.(check bool) "huge flag" true f.Flags.huge
  | None -> Alcotest.fail "huge mapping missing");
  let ms = ok "mappings" (Pt_flat.mappings d ~root) in
  Alcotest.(check int) "expands to 4 pages" 4 (List.length ms);
  (* unmap clears the whole span *)
  let d = ok "unmap huge" (Pt_flat.unmap_page d ~root ~va:(va_of_pages 2)) in
  Alcotest.(check int) "all gone" 0 (List.length (ok "m" (Pt_flat.mappings d ~root)))

let test_pt_flat_malformed_rejected () =
  (* Simulate the shallow-copy bug: root entry pointing into normal
     (guest-controlled) memory.  Every walk must fail. *)
  let d, root = fresh_pt () in
  let evil = Pte.make tiny ~pa:tiny_layout.Layout.normal_base Flags.user_rw in
  let d = ok "write evil entry" (Pt_flat.write_entry d ~frame:root ~index:0 evil) in
  let msg = err "walk rejects" (Pt_flat.query d ~root ~va:0L) in
  Alcotest.(check bool) "mentions frame area" true
    (contains msg "frame area");
  let _ = err "table_frames rejects" (Pt_flat.table_frames d ~root) in
  ()

let test_pt_flat_table_frames_tree () =
  let d, root = fresh_pt () in
  let d = ok "map" (Pt_flat.map_page d ~root ~va:0L ~pa:0L Flags.user_rw) in
  let frames = ok "frames" (Pt_flat.table_frames d ~root) in
  Alcotest.(check int) "root + one L1" 2 (List.length frames);
  (* Force sharing: point entry 1 at the same L1 table as entry 0. *)
  let l1 = List.nth frames 1 in
  let shared =
    Pte.make tiny ~pa:(Layout.frame_addr tiny_layout l1) Flags.user_rw
  in
  let d = ok "write" (Pt_flat.write_entry d ~frame:root ~index:1 shared) in
  let msg = err "sharing detected" (Pt_flat.table_frames d ~root) in
  Alcotest.(check bool) "mentions tree" true (contains msg "tree")

(* ------------------------------------------------------------------ *)
(* Pt_tree mirror tests                                                *)

let fresh_tree () =
  let falloc = Frame_alloc.create ~nframes:tiny_layout.Layout.frame_count in
  ok "tree create" (Pt_tree.create tiny tiny_layout falloc)

let test_pt_tree_ops () =
  let st = fresh_tree () in
  let va = va_of_pages 7 and pa = tiny_layout.Layout.epc_base in
  let st = ok "map" (Pt_tree.map_page st ~va ~pa Flags.user_rw) in
  ok "wf" (Pt_tree.wf st);
  (match ok "query" (Pt_tree.query st ~va) with
  | Some (p, _) -> Alcotest.(check int64) "pa" pa p
  | None -> Alcotest.fail "mapping missing");
  let _ = err "double map" (Pt_tree.map_page st ~va ~pa Flags.user_rw) in
  let st = ok "unmap" (Pt_tree.unmap_page st ~va) in
  ok "wf" (Pt_tree.wf st);
  Alcotest.(check bool) "gone" true (ok "q" (Pt_tree.query st ~va) = None);
  let st = ok "huge" (Pt_tree.map_huge st ~va:0L ~pa:0L ~level:2 Flags.user_r) in
  ok "wf huge" (Pt_tree.wf st);
  Alcotest.(check int) "huge expands" 4 (List.length (Pt_tree.mappings st))

(* Regression: a corrupted state whose root is a terminal node (fault
   injection can produce one) must make unmap fail with a typed error,
   not bring the whole pass down with an assertion failure. *)
let test_pt_tree_unmap_term_root () =
  let st = fresh_tree () in
  let corrupt =
    { st with Pt_tree.root = Pt_tree.Term { pa = 0L; flags = Flags.user_rw } }
  in
  match Pt_tree.unmap_page corrupt ~va:0L with
  | Ok _ -> Alcotest.fail "unmap succeeded on a terminal root"
  | Error msg ->
      Alcotest.(check bool) "typed corruption error" true (contains msg "corrupt")

(* ------------------------------------------------------------------ *)
(* Refinement: flat simulates tree                                     *)

(* Operations applied in lock-step to both representations. *)
type op =
  | Map of int * int * Flags.t  (* va page, pa page, flags *)
  | Unmap of int
  | MapHuge of int * int

let pp_op = function
  | Map (v, p, f) -> Printf.sprintf "map %d->%d %s" v p (Flags.to_string f)
  | Unmap v -> Printf.sprintf "unmap %d" v
  | MapHuge (v, p) -> Printf.sprintf "maphuge %d->%d" v p

let gen_op =
  let open QCheck2.Gen in
  let vpages = 1 lsl (Geometry.va_bits tiny - tiny.Geometry.page_shift) in
  let ppages = 12 in
  frequency
    [
      ( 6,
        map3
          (fun v p f -> Map (v, p, f))
          (int_bound (vpages - 1))
          (int_bound (ppages - 1))
          (oneofl [ Flags.user_rw; Flags.user_r; Flags.present_rw ]) );
      (2, map (fun v -> Unmap v) (int_bound (vpages - 1)));
      ( 1,
        map2
          (fun v p -> MapHuge (v * 4, p * 4))
          (int_bound ((vpages / 4) - 1))
          (int_bound 2) );
    ]

let apply_flat (d, root) op =
  match op with
  | Map (v, p, f) ->
      Pt_flat.map_page d ~root ~va:(va_of_pages v) ~pa:(va_of_pages p) f
  | Unmap v -> Pt_flat.unmap_page d ~root ~va:(va_of_pages v)
  | MapHuge (v, p) ->
      Pt_flat.map_huge d ~root ~va:(va_of_pages v) ~pa:(va_of_pages p) ~level:2
        Flags.user_rw

let apply_tree st op =
  match op with
  | Map (v, p, f) -> Pt_tree.map_page st ~va:(va_of_pages v) ~pa:(va_of_pages p) f
  | Unmap v -> Pt_tree.unmap_page st ~va:(va_of_pages v)
  | MapHuge (v, p) ->
      Pt_tree.map_huge st ~va:(va_of_pages v) ~pa:(va_of_pages p) ~level:2
        Flags.user_rw

(* The paper's Sec. 4.1 simulation, as an executable property: both
   representations accept/reject the same operations, stay R-related,
   and answer queries identically. *)
let prop_flat_tree_simulation =
  QCheck2.Test.make ~count:200 ~name:"flat/tree simulation (R preserved)"
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 25) gen_op)
    (fun ops ->
      let d, root = fresh_pt () in
      let tree =
        match Pt_tree.create tiny tiny_layout (Absdata.create tiny_layout).Absdata.falloc with
        | Ok _ ->
            (* rebuild the tree from the flat side so ghosts line up *)
            ok "abstract" (Pt_refine.abstract d ~root)
        | Error m -> Alcotest.failf "tree create: %s" m
      in
      let rec go d tree = function
        | [] -> true
        | op :: rest -> (
            match (apply_flat (d, root) op, apply_tree tree op) with
            | Ok d', Ok tree' ->
                Pt_refine.relate d' ~root tree'
                && Result.is_ok (Pt_tree.wf tree')
                && (let vpages = 1 lsl (Geometry.va_bits tiny - tiny.Geometry.page_shift) in
                    let rec agree v =
                      v >= vpages
                      ||
                      let va = va_of_pages v in
                      let qf = ok "qf" (Pt_flat.query d' ~root ~va) in
                      let qt = ok "qt" (Pt_tree.query tree' ~va) in
                      (match (qf, qt) with
                      | None, None -> true
                      | Some (pf, ff), Some (pt, ft) ->
                          Word.equal pf pt && Flags.equal ff ft
                      | _ -> false)
                      && agree (v + 1)
                    in
                    agree 0)
                && go d' tree' rest
            | Error _, Error _ -> go d tree rest (* both reject: fine *)
            | Ok _, Error e ->
                Alcotest.failf "flat accepted %s but tree rejected: %s" (pp_op op) e
            | Error e, Ok _ ->
                Alcotest.failf "tree accepted %s but flat rejected: %s" (pp_op op) e)
      in
      go d tree ops)

let test_abstract_roundtrip () =
  let d, root = fresh_pt () in
  let d = ok "m1" (Pt_flat.map_page d ~root ~va:0L ~pa:(va_of_pages 3) Flags.user_rw) in
  let d = ok "m2" (Pt_flat.map_page d ~root ~va:(va_of_pages 9) ~pa:0L Flags.user_r) in
  let tree = ok "abstract" (Pt_refine.abstract d ~root) in
  Alcotest.(check bool) "related" true (Pt_refine.relate d ~root tree);
  ok "wf" (Pt_tree.wf tree);
  let mf = ok "flat mappings" (Pt_flat.mappings d ~root) in
  let mt = Pt_tree.mappings tree in
  Alcotest.(check int) "same count" (List.length mf) (List.length mt);
  List.iter2
    (fun (va1, pa1, f1) (va2, pa2, f2) ->
      Alcotest.(check int64) "va" va1 va2;
      Alcotest.(check int64) "pa" pa1 pa2;
      Alcotest.(check string) "flags" (Flags.to_string f1) (Flags.to_string f2))
    mf mt

let test_abstract_rejects_malformed () =
  let d, root = fresh_pt () in
  let evil = Pte.make tiny ~pa:tiny_layout.Layout.normal_base Flags.user_rw in
  let d = ok "corrupt" (Pt_flat.write_entry d ~frame:root ~index:2 evil) in
  let msg = err "abstract fails" (Pt_refine.abstract d ~root) in
  Alcotest.(check bool) "explains escape" true (contains msg "frame area")

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)

let test_boot_identity () =
  let d = ok "boot" (Boot.boot tiny_layout) in
  let root = ok "root" (Boot.os_ept_root d) in
  (* every normal page maps identity *)
  for i = 0 to tiny_layout.Layout.normal_pages - 1 do
    let va = va_of_pages i in
    match ok "q" (Pt_flat.query d ~root ~va) with
    | Some (pa, f) ->
        Alcotest.(check int64) "identity" va pa;
        Alcotest.(check bool) "user" true f.Flags.user;
        Alcotest.(check bool) "writable" true f.Flags.write
    | None -> Alcotest.failf "normal page %d unmapped" i
  done;
  (* nothing in secure memory is mapped *)
  let ms = ok "mappings" (Pt_flat.mappings d ~root) in
  List.iter
    (fun (_, pa, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "pa %Ld not secure" pa)
        false
        (Layout.in_secure tiny_layout pa))
    ms;
  Alcotest.(check int) "exactly the normal pages" tiny_layout.Layout.normal_pages
    (List.length ms)

let test_boot_x86 () =
  let layout = Layout.default Geometry.x86_64 in
  let d = Boot.booted layout in
  let root = ok "root" (Boot.os_ept_root d) in
  (match ok "q0" (Pt_flat.query d ~root ~va:0L) with
  | Some (pa, _) -> Alcotest.(check int64) "first page identity" 0L pa
  | None -> Alcotest.fail "page 0 unmapped");
  let last = va_of_pages 0 in
  ignore last;
  let last_page =
    Int64.mul (Int64.of_int 4096) (Int64.of_int (layout.Layout.normal_pages - 1))
  in
  (match ok "qlast" (Pt_flat.query d ~root ~va:last_page) with
  | Some (pa, _) -> Alcotest.(check int64) "last page identity" last_page pa
  | None -> Alcotest.fail "last normal page unmapped");
  match ok "qsec" (Pt_flat.query d ~root ~va:layout.Layout.frame_base) with
  | None -> ()
  | Some _ -> Alcotest.fail "secure memory reachable through OS EPT"

(* ------------------------------------------------------------------ *)
(* Hypercalls                                                          *)

let booted () = Boot.booted tiny_layout

let create_default d =
  Hypercall.create d ~elrange_base:0L ~elrange_pages:2
    ~mbuf_va:(va_of_pages 8)

let test_hc_create () =
  let d = booted () in
  let o = create_default d in
  Alcotest.(check bool) "success" true (Hypercall.status_equal o.Hypercall.status Hypercall.Success);
  let e = ok "find" (Absdata.find_enclave o.Hypercall.d o.Hypercall.value) in
  Alcotest.(check bool) "created" true (Enclave.lifecycle_equal e.Enclave.state Enclave.Created);
  (* mbuf mapped in both tables *)
  let mb_va = va_of_pages 8 in
  (match ok "gpt" (Pt_flat.query o.Hypercall.d ~root:e.Enclave.gpt_root ~va:mb_va) with
  | Some (gpa, _) -> Alcotest.(check int64) "gpt identity" mb_va gpa
  | None -> Alcotest.fail "mbuf not in GPT");
  (match ok "ept" (Pt_flat.query o.Hypercall.d ~root:e.Enclave.ept_root ~va:mb_va) with
  | Some (hpa, _) ->
      Alcotest.(check int64) "ept window" tiny_layout.Layout.mbuf_base hpa
  | None -> Alcotest.fail "mbuf not in EPT");
  (* ELRANGE still unmapped *)
  Alcotest.(check bool) "elrange empty" true
    (ok "q" (Pt_flat.query o.Hypercall.d ~root:e.Enclave.ept_root ~va:0L) = None)

let test_hc_create_validation () =
  let d = booted () in
  let o = Hypercall.create d ~elrange_base:1L ~elrange_pages:2 ~mbuf_va:(va_of_pages 8) in
  Alcotest.(check bool) "unaligned elrange rejected" true
    (Hypercall.status_equal o.Hypercall.status Hypercall.Invalid_param);
  Alcotest.(check bool) "state unchanged" true (Absdata.equal d o.Hypercall.d);
  let o2 = Hypercall.create d ~elrange_base:0L ~elrange_pages:9 ~mbuf_va:(va_of_pages 8) in
  Alcotest.(check bool) "overlapping ranges rejected" true
    (Hypercall.status_equal o2.Hypercall.status Hypercall.Invalid_param);
  let o3 = Hypercall.create d ~elrange_base:0L ~elrange_pages:100 ~mbuf_va:(va_of_pages 8) in
  Alcotest.(check bool) "oversized elrange rejected" true
    (Hypercall.status_equal o3.Hypercall.status Hypercall.Invalid_param);
  (* the code's page count is a u64: -1 must not wrap into a huge one *)
  let o4 =
    Hypercall.create d ~elrange_base:(va_of_pages 4) ~elrange_pages:(-1)
      ~mbuf_va:(va_of_pages 8)
  in
  Alcotest.(check bool) "negative page count rejected" true
    (Hypercall.status_equal o4.Hypercall.status Hypercall.Invalid_param);
  Alcotest.(check bool) "state unchanged (negative count)" true (Absdata.equal d o4.Hypercall.d)

let test_hc_add_page () =
  let d = booted () in
  let o = create_default d in
  let eid = o.Hypercall.value in
  let d = o.Hypercall.d in
  let a = Hypercall.add_page d ~eid ~va:0L in
  Alcotest.(check bool) "add ok" true (Hypercall.status_equal a.Hypercall.status Hypercall.Success);
  let e = ok "find" (Absdata.find_enclave a.Hypercall.d eid) in
  (match ok "ept" (Pt_flat.query a.Hypercall.d ~root:e.Enclave.ept_root ~va:0L) with
  | Some (hpa, _) ->
      Alcotest.(check int64) "first epc page" tiny_layout.Layout.epc_base hpa
  | None -> Alcotest.fail "added page not in EPT");
  (match ok "epcm" (Epcm.get a.Hypercall.d.Absdata.epcm 0) with
  | Epcm.Valid { eid = owner; va } ->
      Alcotest.(check int) "owner" eid owner;
      Alcotest.(check int64) "va" 0L va
  | Epcm.Free -> Alcotest.fail "EPCM not updated");
  (* duplicate add rejected, state unchanged *)
  let a2 = Hypercall.add_page a.Hypercall.d ~eid ~va:0L in
  Alcotest.(check bool) "duplicate rejected" true
    (Hypercall.status_equal a2.Hypercall.status Hypercall.Invalid_param);
  Alcotest.(check bool) "transactional" true (Absdata.equal a.Hypercall.d a2.Hypercall.d);
  (* outside elrange rejected *)
  let a3 = Hypercall.add_page a.Hypercall.d ~eid ~va:(va_of_pages 5) in
  Alcotest.(check bool) "outside elrange" true
    (Hypercall.status_equal a3.Hypercall.status Hypercall.Invalid_param)

let test_hc_init_done () =
  let d = booted () in
  let o = create_default d in
  let eid = o.Hypercall.value in
  let i = Hypercall.init_done o.Hypercall.d ~eid in
  Alcotest.(check bool) "init ok" true (Hypercall.status_equal i.Hypercall.status Hypercall.Success);
  (* add after init rejected with Bad_state *)
  let a = Hypercall.add_page i.Hypercall.d ~eid ~va:0L in
  Alcotest.(check bool) "sealed" true (Hypercall.status_equal a.Hypercall.status Hypercall.Bad_state);
  (* double init rejected *)
  let i2 = Hypercall.init_done i.Hypercall.d ~eid in
  Alcotest.(check bool) "double init" true (Hypercall.status_equal i2.Hypercall.status Hypercall.Bad_state);
  (* unknown enclave *)
  let i3 = Hypercall.init_done i.Hypercall.d ~eid:99 in
  Alcotest.(check bool) "unknown eid" true
    (Hypercall.status_equal i3.Hypercall.status Hypercall.Invalid_param)

let test_status_roundtrip () =
  let all =
    [ Hypercall.Success; Hypercall.Invalid_param; Hypercall.No_memory;
      Hypercall.Bad_state ]
  in
  List.iter
    (fun s ->
      match Hypercall.status_of_code (Hypercall.status_code s) with
      | Some s' ->
          Alcotest.(check bool)
            (Format.asprintf "%a survives the round trip" Hypercall.pp_status s)
            true
            (Hypercall.status_equal s s')
      | None ->
          Alcotest.failf "%a: code not decodable" Hypercall.pp_status s)
    all;
  (* distinct statuses keep distinct codes *)
  let codes = List.map Hypercall.status_code all in
  Alcotest.(check int) "codes are distinct" (List.length all)
    (List.length (List.sort_uniq Int64.compare codes));
  (* words outside the status range decode to nothing *)
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "word %Ld is not a status" w)
        true
        (Option.is_none (Hypercall.status_of_code w)))
    [ 4L; 5L; -1L; 99L; Int64.max_int; Int64.min_int ]

let test_hc_epc_exhaustion () =
  let d = booted () in
  let o = Hypercall.create d ~elrange_base:0L ~elrange_pages:8 ~mbuf_va:(va_of_pages 8) in
  let eid = o.Hypercall.value in
  (* tiny layout has 8 EPC pages and elrange_pages=8: fill them all *)
  let rec fill d i =
    if i >= 8 then d
    else
      let a = Hypercall.add_page d ~eid ~va:(va_of_pages i) in
      Alcotest.(check bool) (Printf.sprintf "add %d ok" i) true
        (Hypercall.status_equal a.Hypercall.status Hypercall.Success);
      fill a.Hypercall.d (i + 1)
  in
  let d = fill o.Hypercall.d 0 in
  (* a second enclave cannot add a 9th page *)
  let o2 = Hypercall.create d ~elrange_base:0L ~elrange_pages:2 ~mbuf_va:(va_of_pages 8) in
  let a = Hypercall.add_page o2.Hypercall.d ~eid:o2.Hypercall.value ~va:0L in
  Alcotest.(check bool) "epc exhausted" true
    (Hypercall.status_equal a.Hypercall.status Hypercall.No_memory)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "hyperenclave"
    [
      ( "geometry",
        [
          Alcotest.test_case "constants" `Quick test_geometry_constants;
          Alcotest.test_case "va_index" `Quick test_geometry_va_index;
          Alcotest.test_case "validation" `Quick test_geometry_make_validation;
        ] );
      qsuite "flags-pte" [ prop_flags_roundtrip; prop_pte_roundtrip ];
      ("pte", [ Alcotest.test_case "x86 flag bits" `Quick test_pte_flag_bits ]);
      ( "layout",
        [
          Alcotest.test_case "regions" `Quick test_layout_regions;
          Alcotest.test_case "frame index inverse" `Quick test_layout_frame_index_inverse;
          Alcotest.test_case "sign boundary" `Quick test_layout_sign_boundary;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
          Alcotest.test_case "copy" `Quick test_phys_mem_copy;
        ] );
      ( "allocators",
        [
          Alcotest.test_case "frame alloc" `Quick test_frame_alloc;
          Alcotest.test_case "frame alloc error paths" `Quick test_frame_alloc_error_paths;
          Alcotest.test_case "frame alloc bitmap words" `Quick test_frame_alloc_bitmap_words;
          Alcotest.test_case "frame alloc exhaust/recover" `Quick test_frame_alloc_exhaust_recover;
          Alcotest.test_case "epcm" `Quick test_epcm;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "phys_mem matches its reference" `Quick test_phys_mem_reference;
          Alcotest.test_case "frame_alloc matches its reference" `Quick
            test_frame_alloc_reference;
          Alcotest.test_case "equal values, equal hashes" `Quick test_kernel_canonical;
          Alcotest.test_case "zero_range allocation" `Quick test_zero_range_allocation;
          Alcotest.test_case "epcm walks see every page" `Quick test_epcm_walks;
        ] );
      ( "pt-flat",
        [
          Alcotest.test_case "map/query/unmap" `Quick test_pt_flat_map_query;
          Alcotest.test_case "alignment errors" `Quick test_pt_flat_alignment_errors;
          Alcotest.test_case "huge pages" `Quick test_pt_flat_huge;
          Alcotest.test_case "malformed tables rejected" `Quick test_pt_flat_malformed_rejected;
          Alcotest.test_case "table frames form a tree" `Quick test_pt_flat_table_frames_tree;
        ] );
      ( "pt-tree",
        [
          Alcotest.test_case "ops" `Quick test_pt_tree_ops;
          Alcotest.test_case "unmap on terminal root" `Quick
            test_pt_tree_unmap_term_root;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "abstract roundtrip" `Quick test_abstract_roundtrip;
          Alcotest.test_case "abstract rejects malformed" `Quick test_abstract_rejects_malformed;
        ] );
      qsuite "refinement-props" [ prop_flat_tree_simulation ];
      ( "boot",
        [
          Alcotest.test_case "identity over normal memory" `Quick test_boot_identity;
          Alcotest.test_case "x86-64 geometry" `Quick test_boot_x86;
        ] );
      ( "hypercalls",
        [
          Alcotest.test_case "create" `Quick test_hc_create;
          Alcotest.test_case "create validation" `Quick test_hc_create_validation;
          Alcotest.test_case "add_page" `Quick test_hc_add_page;
          Alcotest.test_case "init_done" `Quick test_hc_init_done;
          Alcotest.test_case "status-code round trip" `Quick test_status_roundtrip;
          Alcotest.test_case "epc exhaustion" `Quick test_hc_epc_exhaustion;
        ] );
    ]
