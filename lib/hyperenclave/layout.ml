module Word = Mir.Word

type region = Normal | Mbuf | Monitor | Frame_area | Epc | Outside

let region_equal (a : region) (b : region) = a = b

let pp_region fmt r =
  Format.pp_print_string fmt
    (match r with
    | Normal -> "normal"
    | Mbuf -> "mbuf"
    | Monitor -> "monitor"
    | Frame_area -> "frame-area"
    | Epc -> "epc"
    | Outside -> "outside")

type t = {
  geom : Geometry.t;
  normal_base : Word.t;
  normal_pages : int;
  mbuf_base : Word.t;
  mbuf_pages : int;
  monitor_base : Word.t;
  monitor_pages : int;
  frame_base : Word.t;
  frame_count : int;
  epc_base : Word.t;
  epc_pages : int;
}

let make ~geom ~normal_pages ~mbuf_page_index ~mbuf_pages ~monitor_pages
    ~frame_count ~epc_pages =
  let page = Int64.of_int (Geometry.page_size geom) in
  let off pages base = Int64.add base (Int64.mul page (Int64.of_int pages)) in
  if normal_pages <= 0 || mbuf_pages <= 0 || frame_count <= 0 || epc_pages <= 0
  then Error "layout: all regions need at least one page"
  else if mbuf_page_index < 0 || mbuf_page_index + mbuf_pages > normal_pages then
    Error "layout: marshalling buffer must lie within normal memory"
  else
    let normal_base = 0L in
    let monitor_base = off normal_pages normal_base in
    let frame_base = off monitor_pages monitor_base in
    let epc_base = off frame_count frame_base in
    Ok
      {
        geom;
        normal_base;
        normal_pages;
        mbuf_base = off mbuf_page_index normal_base;
        mbuf_pages;
        monitor_base;
        monitor_pages;
        frame_base;
        frame_count;
        epc_base;
        epc_pages;
      }

let default geom =
  let r =
    if Geometry.page_size geom <= 64 then
      (* tiny geometry: keep every region enumerable *)
      make ~geom ~normal_pages:8 ~mbuf_page_index:6 ~mbuf_pages:1
        ~monitor_pages:2 ~frame_count:24 ~epc_pages:8
    else
      make ~geom ~normal_pages:8192 ~mbuf_page_index:8000 ~mbuf_pages:16
        ~monitor_pages:256 ~frame_count:1024 ~epc_pages:1024
  in
  match r with Ok l -> l | Error msg -> invalid_arg msg

let page_bytes l = Int64.of_int (Geometry.page_size l.geom)

let region_end base pages l = Int64.add base (Int64.mul (page_bytes l) (Int64.of_int pages))

(* Unsigned comparison by [Int64] primitives, which compile inline:
   [region_of] runs once per observed mapping. *)
let lt_u (a : int64) (b : int64) = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int
let within base pages l addr = (not (lt_u addr base)) && lt_u addr (region_end base pages l)

let mbuf_limit l = region_end l.mbuf_base l.mbuf_pages l
let phys_limit l = region_end l.epc_base l.epc_pages l

let region_of l addr =
  if within l.mbuf_base l.mbuf_pages l addr then Mbuf
  else if within l.normal_base l.normal_pages l addr then Normal
  else if within l.monitor_base l.monitor_pages l addr then Monitor
  else if within l.frame_base l.frame_count l addr then Frame_area
  else if within l.epc_base l.epc_pages l addr then Epc
  else Outside

let frame_addr l i =
  if i < 0 || i >= l.frame_count then
    invalid_arg (Printf.sprintf "frame_addr: frame %d out of 0..%d" i (l.frame_count - 1))
  else Int64.add l.frame_base (Int64.mul (page_bytes l) (Int64.of_int i))

let frame_index l addr =
  if within l.frame_base l.frame_count l addr && Geometry.page_aligned l.geom addr
  then Some (Int64.to_int (Int64.unsigned_div (Int64.sub addr l.frame_base) (page_bytes l)))
  else None

let epc_page_addr l i =
  if i < 0 || i >= l.epc_pages then
    invalid_arg (Printf.sprintf "epc_page_addr: page %d out of 0..%d" i (l.epc_pages - 1))
  else Int64.add l.epc_base (Int64.mul (page_bytes l) (Int64.of_int i))

let epc_page_index l addr =
  if within l.epc_base l.epc_pages l addr && Geometry.page_aligned l.geom addr then
    Some (Int64.to_int (Int64.unsigned_div (Int64.sub addr l.epc_base) (page_bytes l)))
  else None

let in_secure l addr =
  match region_of l addr with
  | Monitor | Frame_area | Epc -> true
  | Normal | Mbuf | Outside -> false

let pp fmt l =
  Format.fprintf fmt
    "@[<v>geometry: %a@,normal: [%a, %a) (mbuf [%a, %a))@,monitor: [%a, %a)@,\
     frames: [%a, %a) (%d frames)@,epc: [%a, %a) (%d pages)@]"
    Geometry.pp l.geom Word.pp l.normal_base Word.pp
    (region_end l.normal_base l.normal_pages l)
    Word.pp l.mbuf_base Word.pp (mbuf_limit l) Word.pp l.monitor_base Word.pp
    (region_end l.monitor_base l.monitor_pages l)
    Word.pp l.frame_base Word.pp
    (region_end l.frame_base l.frame_count l)
    l.frame_count Word.pp l.epc_base Word.pp (phys_limit l) l.epc_pages
