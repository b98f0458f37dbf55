open Hyperenclave
module Word = Mir.Word

let ( let* ) = Result.bind

type view = {
  is_active : bool;
  cpu_regs : State.regs option;
  saved_regs : State.regs;
  mappings : (Word.t * Word.t * Flags.t) list;
  pages : (Word.t * Word.t list) list;
  oracle_pos : int;
}

let page_contents d hpa =
  Phys_mem.read_words d.Absdata.phys hpa ~count:(Geometry.page_size (Absdata.geom d) / 8)

let reachable_of d p =
  match p with
  | Principal.Os -> Nested.os_reachable d
  | Principal.Enclave eid -> (
      match Absdata.find_enclave d eid with
      | Error _ -> Ok [] (* principal not created yet: empty address space *)
      | Ok e -> Nested.enclave_reachable d e)

type memory = {
  m_mappings : (Word.t * Word.t * Flags.t) list;
  m_pages : (Word.t * Word.t list) list;
}

(* Shared pages are skipped and repeated ones read once, in mapping
   order, so an error is the first page's that fails; [Int64]'s own
   comparisons are inlined where [Mir.Word]'s are calls. *)
let observe_memory (d : Absdata.t) p =
  let* reach = reachable_of d p in
  let layout = d.Absdata.layout in
  let* pages =
    List.fold_left
      (fun acc (_, hpa, _) ->
        let* acc = acc in
        if
          Layout.region_equal (Layout.region_of layout hpa) Layout.Mbuf
          || List.exists (fun (p0, _) -> Int64.equal p0 hpa) acc
        then Ok acc
        else
          let* contents = page_contents d hpa in
          Ok ((hpa, contents) :: acc))
      (Ok []) reach
  in
  Ok
    {
      m_mappings = reach;
      m_pages = List.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) pages;
    }

let observe (st : State.t) p =
  let* m = observe_memory st.State.mon p in
  let is_active = Principal.equal st.State.active p in
  Ok
    {
      is_active;
      cpu_regs = (if is_active then Some (Array.copy st.State.regs) else None);
      saved_regs = State.saved_ctx st p;
      mappings = m.m_mappings;
      pages = m.m_pages;
      oracle_pos = Oracle.position (State.oracle_of st p);
    }

let mapping_equal (va1, pa1, f1) (va2, pa2, f2) =
  Word.equal va1 va2 && Word.equal pa1 pa2 && Flags.equal f1 f2

let view_equal a b =
  Bool.equal a.is_active b.is_active
  && Option.equal State.regs_equal a.cpu_regs b.cpu_regs
  && State.regs_equal a.saved_regs b.saved_regs
  && List.equal mapping_equal a.mappings b.mappings
  && List.equal
       (fun (p1, c1) (p2, c2) -> Word.equal p1 p2 && List.equal Word.equal c1 c2)
       a.pages b.pages
  && a.oracle_pos = b.oracle_pos

let indistinguishable p st1 st2 =
  let* v1 = observe st1 p in
  let* v2 = observe st2 p in
  Ok (view_equal v1 v2)

(* The components [observe] reads outside [st.mon]: activity, live
   registers when active, saved context and oracle position. *)
let cpu_equal p (st1 : State.t) (st2 : State.t) =
  let active = Principal.equal st1.State.active p in
  Bool.equal active (Principal.equal st2.State.active p)
  && ((not active) || State.regs_equal st1.State.regs st2.State.regs)
  && State.regs_equal (State.saved_ctx st1 p) (State.saved_ctx st2 p)
  && Oracle.position (State.oracle_of st1 p) = Oracle.position (State.oracle_of st2 p)

let indistinguishable_after p ~before:(st1, st2) st1' st2' =
  if st1'.State.mon == st1.State.mon && st2'.State.mon == st2.State.mon then
    Ok (cpu_equal p st1' st2')
  else indistinguishable p st1' st2'

let unchanged_after p ~before:(st, obs) st' =
  let* v = obs in
  if st'.State.mon == st.State.mon then Ok (cpu_equal p st st')
  else
    let* v' = observe st' p in
    Ok (view_equal v v')
