open Hyperenclave
module Rng = Check.Rng
module Principal = Security.Principal

type t =
  | Exhaust_frames
  | Flip_pt_bit of { table : int; index : int; bit : int }
  | Flip_bitmap_bit of { frame : int }
  | Corrupt_epcm of { page : int; state : Epcm.page_state }
  | Clobber_oracle of { who : Principal.t; seed : int }
  | Tlb_prefetch of { pick : int }
  | Truncate

type kind =
  | Exhaustion
  | Pt_bitflip
  | Bitmap_bitflip
  | Epcm_corruption
  | Oracle
  | Tlb
  | Truncation

let kind_of = function
  | Exhaust_frames -> Exhaustion
  | Flip_pt_bit _ -> Pt_bitflip
  | Flip_bitmap_bit _ -> Bitmap_bitflip
  | Corrupt_epcm _ -> Epcm_corruption
  | Clobber_oracle _ -> Oracle
  | Tlb_prefetch _ -> Tlb
  | Truncate -> Truncation

let all_kinds =
  [ Exhaustion; Pt_bitflip; Bitmap_bitflip; Epcm_corruption; Oracle; Tlb;
    Truncation ]

let kind_to_string = function
  | Exhaustion -> "exhaustion"
  | Pt_bitflip -> "pt-bitflip"
  | Bitmap_bitflip -> "bitmap-bitflip"
  | Epcm_corruption -> "epcm"
  | Oracle -> "oracle"
  | Tlb -> "tlb"
  | Truncation -> "truncation"

(* The [--faults] syntax: "all", or comma-separated kind names.  An
   unknown name or an empty list is an error, and the message quotes
   the unknown name. *)
let kinds_of_string s =
  let names =
    List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s))
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match List.find_opt (fun k -> String.equal (kind_to_string k) name) all_kinds with
        | Some k -> parse (k :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown fault kind %S (expected one of %s, or all)" name
                 (String.concat ", " (List.map kind_to_string all_kinds))))
  in
  if names = [ "all" ] then Ok all_kinds
  else if names = [] then Error "empty fault kind list"
  else parse [] names

let corrupts f =
  match kind_of f with
  | Pt_bitflip | Bitmap_bitflip | Epcm_corruption -> true
  | Exhaustion | Oracle | Tlb | Truncation -> false

let breaks_translation f =
  match kind_of f with
  | Pt_bitflip | Bitmap_bitflip -> true
  | Epcm_corruption | Exhaustion | Oracle | Tlb | Truncation -> false

let pp fmt = function
  | Exhaust_frames -> Format.pp_print_string fmt "exhaust-frames"
  | Flip_pt_bit { table; index; bit } ->
      Format.fprintf fmt "flip-pt-bit(table=%d, index=%d, bit=%d)" table index bit
  | Flip_bitmap_bit { frame } -> Format.fprintf fmt "flip-bitmap-bit(frame=%d)" frame
  | Corrupt_epcm { page; state } ->
      Format.fprintf fmt "corrupt-epcm(page=%d, %a)" page Epcm.pp_page_state state
  | Clobber_oracle { who; seed } ->
      Format.fprintf fmt "clobber-oracle(%a, seed=%d)" Principal.pp who seed
  | Tlb_prefetch { pick } -> Format.fprintf fmt "tlb-prefetch(pick=%d)" pick
  | Truncate -> Format.pp_print_string fmt "truncate"

let to_string f = Format.asprintf "%a" pp f

let page_va layout i =
  Int64.mul (Int64.of_int (Geometry.page_size layout.Layout.geom)) (Int64.of_int i)

let random rng (layout : Layout.t) ~kinds =
  let kind, rng = Rng.pick rng kinds in
  match kind with
  | Exhaustion -> (Exhaust_frames, rng)
  | Pt_bitflip ->
      let table, rng = Rng.int_below rng 16 in
      let index, rng = Rng.int_below rng (Geometry.entries_per_table layout.Layout.geom) in
      let bit, rng = Rng.int_below rng 64 in
      (Flip_pt_bit { table; index; bit }, rng)
  | Bitmap_bitflip ->
      let frame, rng = Rng.int_below rng layout.Layout.frame_count in
      (Flip_bitmap_bit { frame }, rng)
  | Epcm_corruption ->
      let page, rng = Rng.int_below rng layout.Layout.epc_pages in
      let free, rng = Rng.bool rng in
      if free then (Corrupt_epcm { page; state = Epcm.Free }, rng)
      else
        let eid, rng = Rng.int_below rng 4 in
        let vp, rng = Rng.int_below rng 6 in
        ( Corrupt_epcm
            { page; state = Epcm.Valid { eid = eid + 1; va = page_va layout vp } },
          rng )
  | Oracle ->
      let who, rng =
        Rng.pick rng
          [ Principal.Os; Principal.Enclave 1; Principal.Enclave 2;
            Principal.Enclave 3 ]
      in
      let seed, rng = Rng.int_below rng 1_000_000 in
      (Clobber_oracle { who; seed }, rng)
  | Tlb ->
      let pick, rng = Rng.int_below rng 64 in
      (Tlb_prefetch { pick }, rng)
  | Truncation -> (Truncate, rng)
