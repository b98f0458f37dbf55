open Hyperenclave
module Word = Mir.Word

let ( let* ) = Result.bind

let enclaves d =
  List.map
    (fun eid ->
      match Absdata.find_enclave d eid with
      | Ok e -> e
      | Error _ -> assert false)
    (Absdata.enclave_ids d)

let rec each f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      each f rest

(* The page-table walks one [check] shares among the invariants: each
   enclave's composed GPT∘EPT map and the OS's EPT map, each walked at
   most once, when an invariant first reads it.  A walk's result does
   not depend on when it is made, so each invariant meets the same
   first error a walk of its own would. *)
type walk = ((Word.t * Word.t * Flags.t) list, string) result Lazy.t

type walks = { enclave_walks : (Enclave.t * walk) list; os_walk : walk }

let walks d =
  {
    enclave_walks =
      List.map (fun e -> (e, lazy (Nested.enclave_reachable d e))) (enclaves d);
    os_walk = lazy (Nested.os_reachable d);
  }

let elrange_isolation d w =
  let geom = Absdata.geom d in
  let* page_sets =
    List.fold_left
      (fun acc (e, reach) ->
        let* acc = acc in
        let* reach = Lazy.force reach in
        (* physical pages the enclave reaches from its ELRANGE *)
        let pages =
          List.filter_map
            (fun (va, hpa, _) ->
              if Enclave.in_elrange e geom va then Some hpa else None)
            reach
        in
        Ok ((e, pages) :: acc))
      (Ok []) w.enclave_walks
  in
  let rec pairs = function
    | [] -> Ok ()
    | (e1, p1) :: rest ->
        let* () =
          each
            (fun (e2, p2) ->
              match
                List.find_opt (fun pa -> List.exists (fun p -> Int64.equal pa p) p2) p1
              with
              | None -> Ok ()
              | Some pa ->
                  Error
                    (Printf.sprintf
                       "enclaves %d and %d both reach physical page %s from \
                        their ELRANGEs"
                       e1.Enclave.eid e2.Enclave.eid (Word.to_hex pa)))
            rest
        in
        pairs rest
  in
  pairs page_sets

let mbuf_invariant d w =
  let geom = Absdata.geom d in
  let layout = d.Absdata.layout in
  let* os_reach = Lazy.force w.os_walk in
  let os_pages = List.map (fun (_, hpa, _) -> hpa) os_reach in
  each
    (fun (e, reach) ->
      let* reach = Lazy.force reach in
      each
        (fun (va, hpa, _) ->
          if List.exists (fun p -> Int64.equal hpa p) os_pages then
            if
              Layout.region_equal (Layout.region_of layout hpa) Layout.Mbuf
              && Enclave.in_mbuf_va e geom va
            then Ok ()
            else
              Error
                (Printf.sprintf
                   "enclave %d va %s and the OS share physical page %s outside \
                    the marshalling buffer"
                   e.Enclave.eid (Word.to_hex va) (Word.to_hex hpa))
          else Ok ())
        reach)
    w.enclave_walks

let epcm_invariant d w =
  let layout = d.Absdata.layout in
  each
    (fun (e, reach) ->
      let* reach = Lazy.force reach in
      each
        (fun (va, hpa, _) ->
          match Layout.epc_page_index layout hpa with
          | None -> Ok ()
          | Some page -> (
              let* st = Epcm.get d.Absdata.epcm page in
              match st with
              | Epcm.Valid { eid; va = recorded_va }
                when eid = e.Enclave.eid && Word.equal recorded_va va ->
                  Ok ()
              | Epcm.Valid { eid; _ } ->
                  Error
                    (Printf.sprintf
                       "EPC page %d mapped by enclave %d but EPCM records owner %d"
                       page e.Enclave.eid eid)
              | Epcm.Free ->
                  Error
                    (Printf.sprintf
                       "covert mapping: EPC page %d mapped by enclave %d with no \
                        EPCM entry"
                       page e.Enclave.eid)))
        reach)
    w.enclave_walks

let no_huge d ~root =
  let g = Absdata.geom d in
  let rec table frame level =
    Result.join
      (Pt_flat.fold_present d ~frame
         (fun index entry acc ->
           let* () = acc in
           if Pte.is_huge g entry then
             Error
               (Printf.sprintf "huge mapping at level %d (frame %d, index %d)"
                  level frame index)
           else if level = 1 then Ok ()
           else
             match Layout.frame_index d.Absdata.layout (Pte.addr g entry) with
             | None ->
                 Error
                   (Printf.sprintf "entry escapes frame area (frame %d, index %d)"
                      frame index)
             | Some next -> table next (level - 1))
         (Ok ()))
  in
  table root g.Geometry.levels

let enclave_invariants d w =
  let geom = Absdata.geom d in
  let layout = d.Absdata.layout in
  each
    (fun (e, reach) ->
      if not (Enclave.ranges_disjoint e geom) then
        Error
          (Printf.sprintf "enclave %d: ELRANGE overlaps the marshalling window"
             e.Enclave.eid)
      else
        let* () = no_huge d ~root:e.Enclave.gpt_root in
        let* () = no_huge d ~root:e.Enclave.ept_root in
        let* reach = Lazy.force reach in
        each
          (fun (va, hpa, _) ->
            let in_epc =
              Layout.region_equal (Layout.region_of layout hpa) Layout.Epc
            in
            let in_elrange = Enclave.in_elrange e geom va in
            if in_epc && not in_elrange then
              Error
                (Printf.sprintf
                   "enclave %d: va %s outside ELRANGE reaches EPC page %s"
                   e.Enclave.eid (Word.to_hex va) (Word.to_hex hpa))
            else if in_elrange && not in_epc then
              Error
                (Printf.sprintf
                   "enclave %d: ELRANGE va %s reaches non-EPC page %s"
                   e.Enclave.eid (Word.to_hex va) (Word.to_hex hpa))
            else Ok ())
          reach)
    w.enclave_walks

let tables_protected d w =
  let layout = d.Absdata.layout in
  let bad hpa =
    match Layout.region_of layout hpa with
    | Layout.Frame_area | Layout.Monitor -> true
    | Layout.Normal | Layout.Mbuf | Layout.Epc | Layout.Outside -> false
  in
  let* os_reach = Lazy.force w.os_walk in
  let* () =
    each
      (fun (gpa, hpa, _) ->
        if bad hpa then
          Error
            (Printf.sprintf "OS gpa %s reaches protected page %s" (Word.to_hex gpa)
               (Word.to_hex hpa))
        else Ok ())
      os_reach
  in
  each
    (fun (e, reach) ->
      let* reach = Lazy.force reach in
      each
        (fun (va, hpa, _) ->
          if bad hpa then
            Error
              (Printf.sprintf "enclave %d va %s reaches protected page %s"
                 e.Enclave.eid (Word.to_hex va) (Word.to_hex hpa))
          else Ok ())
        reach)
    w.enclave_walks

let invariants =
  List.map
    (fun (name, f) -> Mirverif.Invariant.make name (fun (d, w) -> f d w))
    [
      ("elrange-isolation", elrange_isolation);
      ("mbuf-invariant", mbuf_invariant);
      ("epcm-invariant", epcm_invariant);
      ("enclave-invariants", enclave_invariants);
      ("tables-protected", tables_protected);
    ]

let check d = Mirverif.Invariant.check_all invariants (d, walks d)

let check_reachable ~states ~actions =
  let module Report = Mirverif.Report in
  List.fold_left
    (fun (inv, pres) (label, (st : State.t)) ->
      let verdict = check st.State.mon in
      let inv =
        match verdict with
        | Ok () -> Report.add_pass inv
        | Error reason -> Report.add_failure inv ~case:label ~reason
      in
      let pres =
        List.fold_left
          (fun rep a ->
            match Transition.step st a with
            | Error _ -> Report.add_skip rep
            | Ok st' -> (
                (* [check] reads only the monitor, so a step that keeps
                   the pre-state's monitor object keeps its verdict *)
                let verdict' =
                  if st'.State.mon == st.State.mon then verdict else check st'.State.mon
                in
                match verdict' with
                | Ok () -> Report.add_pass rep
                | Error reason ->
                    Report.add_failure rep
                      ~case:(label ^ " / " ^ Transition.action_to_string a)
                      ~reason))
          pres actions
      in
      (inv, pres))
    (Report.empty "invariants on reachable states", Report.empty "invariant preservation")
    states
