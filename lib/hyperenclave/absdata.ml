module IntMap = Map.Make (Int)

type t = {
  layout : Layout.t;
  phys : Phys_mem.t;
  falloc : Frame_alloc.t;
  epcm : Epcm.t;
  enclaves : Enclave.t IntMap.t;
  next_eid : int;
  os_ept_root : int option;
}

let create layout =
  {
    layout;
    phys = Phys_mem.create ~limit:(Layout.phys_limit layout);
    falloc = Frame_alloc.create ~nframes:layout.Layout.frame_count;
    epcm = Epcm.create ~npages:layout.Layout.epc_pages;
    enclaves = IntMap.empty;
    next_eid = 1;
    os_ept_root = None;
  }

let geom d = d.layout.Layout.geom

let find_enclave d eid =
  match IntMap.find_opt eid d.enclaves with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "no enclave with id %d" eid)

let update_enclave d e = { d with enclaves = IntMap.add e.Enclave.eid e d.enclaves }
let enclave_ids d = List.map fst (IntMap.bindings d.enclaves)
let enclave_count d = IntMap.cardinal d.enclaves

let equal a b =
  a == b
  || Phys_mem.equal a.phys b.phys
  && Frame_alloc.equal a.falloc b.falloc
  && Epcm.equal a.epcm b.epcm
  && IntMap.equal Enclave.equal a.enclaves b.enclaves
  && a.next_eid = b.next_eid
  && Option.equal Int.equal a.os_ept_root b.os_ept_root

(* Each component is folded in key order, so the hash depends on the
   contents [equal] compares and not on the shape of a map. *)
let hash d =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let word h w = mix h (Int64.to_int w) in
  let h =
    Phys_mem.fold_nonzero
      (fun a v h -> word (word h a) v)
      d.phys
      (word 0 (Phys_mem.limit d.phys))
  in
  let h =
    Frame_alloc.fold_allocated (fun i h -> mix h i) d.falloc
      (mix h (Frame_alloc.nframes d.falloc))
  in
  let h =
    Epcm.fold_valid
      (fun page ~eid ~va h -> word (mix (mix h page) eid) va)
      d.epcm
      (mix h (Epcm.npages d.epcm))
  in
  let h = IntMap.fold (fun _ e h -> mix h (Hashtbl.hash e)) d.enclaves h in
  mix (mix h d.next_eid) (Option.value ~default:(-1) d.os_ept_root)

let pp fmt d =
  Format.fprintf fmt "@[<v>%a@,allocated frames: %d, EPC valid: %d, enclaves: %d@]"
    Layout.pp d.layout
    (Frame_alloc.allocated_count d.falloc)
    (Epcm.valid_count d.epcm) (enclave_count d)
