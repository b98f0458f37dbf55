open Hyperenclave
module Word = Mir.Word

let ( let* ) = Result.bind

type action =
  | Const of { dst : int; value : Word.t }
  | Compute of { dst : int; src1 : int; src2 : int }
  | Load of { dst : int; va : Word.t }
  | Store of { src : int; va : Word.t }
  | Hc_create of { elrange_base : Word.t; elrange_pages : int; mbuf_va : Word.t }
  | Hc_add_page of { eid : int; va : Word.t }
  | Hc_remove_page of { eid : int; va : Word.t }
  | Hc_init_done of { eid : int }
  | Hc_enter of { eid : int }
  | Hc_exit

let pp_action fmt = function
  | Const { dst; value } -> Format.fprintf fmt "r%d := %a" dst Word.pp value
  | Compute { dst; src1; src2 } -> Format.fprintf fmt "r%d := r%d + r%d" dst src1 src2
  | Load { dst; va } -> Format.fprintf fmt "r%d := [%a]" dst Word.pp va
  | Store { src; va } -> Format.fprintf fmt "[%a] := r%d" Word.pp va src
  | Hc_create { elrange_base; elrange_pages; mbuf_va } ->
      Format.fprintf fmt "hc_create(elrange=%a+%d, mbuf=%a)" Word.pp elrange_base
        elrange_pages Word.pp mbuf_va
  | Hc_add_page { eid; va } -> Format.fprintf fmt "hc_add_page(%d, %a)" eid Word.pp va
  | Hc_remove_page { eid; va } ->
      Format.fprintf fmt "hc_remove_page(%d, %a)" eid Word.pp va
  | Hc_init_done { eid } -> Format.fprintf fmt "hc_init_done(%d)" eid
  | Hc_enter { eid } -> Format.fprintf fmt "hc_enter(%d)" eid
  | Hc_exit -> Format.pp_print_string fmt "hc_exit"

let action_to_string a = Format.asprintf "%a" pp_action a

let aligned8 va = Word.equal (Word.extract va ~lo:0 ~len:3) Word.zero

let check_perms ~write (flags : Flags.t) =
  if not flags.Flags.present then Error "not present"
  else if not flags.Flags.user then Error "supervisor-only mapping"
  else if write && not flags.Flags.write then Error "write to read-only mapping"
  else Ok ()

(* Resolve an active-principal access; permission is the conjunction of
   the stages' flags, and guests access memory as user.  Translations
   go through the tagged TLB: a hit skips the walk, a successful walk
   fills the cache.  Returns the host-physical address and that fill
   ([None] on a hit): [step] applies it with [fill], [precondition]
   drops it. *)
let resolve (st : State.t) va ~write =
  let d = st.State.mon in
  let geom = Absdata.geom d in
  let va_page = Geometry.page_base geom va in
  match Tlb.lookup st.State.tlb st.State.active ~va_page with
  | Some entry ->
      let* () = check_perms ~write entry.Tlb.flags in
      Ok (Int64.logor entry.Tlb.hpa_page (Geometry.page_offset geom va), None)
  | None -> (
      let* translated =
        match st.State.active with
        | Principal.Os -> Nested.os_translate d ~gpa:va
        | Principal.Enclave eid ->
            let* e = Absdata.find_enclave d eid in
            Nested.enclave_translate d e ~va
      in
      match translated with
      | None -> Error (Printf.sprintf "page fault at %s" (Word.to_hex va))
      | Some (hpa, flags) ->
          let* () = check_perms ~write flags in
          Ok (hpa, Some (va_page, { Tlb.hpa_page = Geometry.page_base geom hpa; flags })))

let fill (st : State.t) = function
  | None -> st
  | Some (va_page, entry) ->
      { st with State.tlb = Tlb.fill st.State.tlb st.State.active ~va_page entry }

let require_os (st : State.t) =
  match st.State.active with
  | Principal.Os -> Ok ()
  | Principal.Enclave _ -> Error "hypercall reserved to the primary OS"

let set_status st status =
  State.with_reg st 0 (Hypercall.status_code status)

let in_mbuf (st : State.t) hpa =
  Layout.region_equal
    (Layout.region_of st.State.mon.Absdata.layout hpa)
    Layout.Mbuf

let hypercall d = function
  | Hc_create { elrange_base; elrange_pages; mbuf_va } ->
      Hypercall.create d ~elrange_base ~elrange_pages ~mbuf_va
  | Hc_add_page { eid; va } -> { (Hypercall.add_page d ~eid ~va) with value = 0 }
  | Hc_remove_page { eid; va } ->
      { (Hypercall.remove_page d ~eid ~va) with value = 0 }
  | Hc_init_done { eid } -> { (Hypercall.init_done d ~eid) with value = 0 }
  | (Const _ | Compute _ | Load _ | Store _ | Hc_enter _ | Hc_exit) as a ->
      invalid_arg ("Transition.hypercall: " ^ action_to_string a)

let step_with ~hypercall ?(flush = true) (st : State.t) action =
  match action with
  | Const { dst; value } -> State.with_reg st dst value
  | Compute { dst; src1; src2 } ->
      let* a = State.reg st src1 in
      let* b = State.reg st src2 in
      State.with_reg st dst (Word.add Word.W64 a b)
  | Load { dst; va } ->
      if not (aligned8 va) then Error "unaligned load"
      else
        let* hpa, tlb_fill = resolve st va ~write:false in
        let st = fill st tlb_fill in
        if in_mbuf st hpa then
          (* declassified read: the reader's own oracle supplies the value *)
          let value, st = State.take_oracle st st.State.active in
          State.with_reg st dst value
        else
          let* value = Phys_mem.read64 st.State.mon.Absdata.phys hpa in
          State.with_reg st dst value
  | Store { src; va } ->
      if not (aligned8 va) then Error "unaligned store"
      else
        let* hpa, tlb_fill = resolve st va ~write:true in
        let st = fill st tlb_fill in
        if in_mbuf st hpa then Ok st (* declassified: formally ignored *)
        else
          let* value = State.reg st src in
          let* phys = Phys_mem.write64 st.State.mon.Absdata.phys hpa value in
          Ok { st with State.mon = { st.State.mon with Absdata.phys } }
  | Hc_create _ ->
      let* () = require_os st in
      let o = hypercall st.State.mon action in
      let* st = set_status { st with State.mon = o.Hypercall.d } o.Hypercall.status in
      State.with_reg st 1 (Int64.of_int o.Hypercall.value)
  | Hc_add_page _ | Hc_init_done _ ->
      let* () = require_os st in
      let o = hypercall st.State.mon action in
      set_status { st with State.mon = o.Hypercall.d } o.Hypercall.status
  | Hc_remove_page { eid; va } ->
      let* () = require_os st in
      let o = hypercall st.State.mon action in
      let st = { st with State.mon = o.Hypercall.d } in
      (* TLB consistency: the removed translation must be invalidated.
         [flush:false] models the buggy monitor the stale-TLB tests
         exhibit. *)
      let st =
        if flush && Hypercall.status_equal o.Hypercall.status Hypercall.Success then
          let geom = Absdata.geom st.State.mon in
          {
            st with
            State.tlb =
              Tlb.flush_va st.State.tlb (Principal.Enclave eid)
                ~va_page:(Geometry.page_base geom va);
          }
        else st
      in
      set_status st o.Hypercall.status
  | Hc_enter { eid } ->
      let* () = require_os st in
      let* e = Absdata.find_enclave st.State.mon eid in
      if not (Enclave.lifecycle_equal e.Enclave.state Enclave.Initialized) then
        Error "enter of uninitialized enclave"
      else
        let target = Principal.Enclave eid in
        let ctx = Principal.Map.add Principal.Os st.State.regs st.State.ctx in
        let regs = State.saved_ctx st target in
        Ok { st with State.active = target; regs; ctx = Principal.Map.remove target ctx }
  | Hc_exit -> (
      match st.State.active with
      | Principal.Os -> Error "exit outside an enclave"
      | Principal.Enclave _ as me ->
          let ctx = Principal.Map.add me st.State.regs st.State.ctx in
          let regs = State.saved_ctx st Principal.Os in
          Ok
            {
              st with
              State.active = Principal.Os;
              regs;
              ctx = Principal.Map.remove Principal.Os ctx;
            })

let step ?flush st action = step_with ~hypercall ?flush st action
let enabled st action = Result.is_ok (step st action)

(* ------------------------------------------------------------------ *)
(* Total enabledness enumerator.

   [step] decides enabledness implicitly, by failing somewhere inside
   the per-action execution.  The model checker needs the question
   answered without executing — and without the TLB fill a successful
   walk makes, which [precondition] drops — so the preconditions are
   factored out here, mirroring [step] exactly.  The agreement is
   pinned by a property test: for every state and action,
   [Result.is_ok (precondition st a) = Result.is_ok (step st a)]. *)

let reg_ok i =
  if i < 0 || i >= State.nregs then
    Error (Printf.sprintf "register %d out of range" i)
  else Ok ()

let precondition (st : State.t) action =
  match action with
  | Const { dst; _ } -> reg_ok dst
  | Compute { dst; src1; src2 } ->
      let* () = reg_ok src1 in
      let* () = reg_ok src2 in
      reg_ok dst
  | Load { dst; va } ->
      if not (aligned8 va) then Error "unaligned load"
      else
        let* hpa, _ = resolve st va ~write:false in
        if in_mbuf st hpa then reg_ok dst
        else
          let* _ = Phys_mem.read64 st.State.mon.Absdata.phys hpa in
          reg_ok dst
  | Store { src; va } ->
      if not (aligned8 va) then Error "unaligned store"
      else
        let* hpa, _ = resolve st va ~write:true in
        if in_mbuf st hpa then Ok () (* declassified: the source is never read *)
        else
          let* value = State.reg st src in
          let* _ = Phys_mem.write64 st.State.mon.Absdata.phys hpa value in
          Ok ()
  | Hc_create _ | Hc_add_page _ | Hc_remove_page _ | Hc_init_done _ ->
      (* status-reporting hypercalls: the low spec's status goes to
         reg 0 whatever it is (a failure rolls the monitor back, see
         Hypercall), so for the OS they are always enabled *)
      require_os st
  | Hc_enter { eid } ->
      let* () = require_os st in
      let* e = Absdata.find_enclave st.State.mon eid in
      if not (Enclave.lifecycle_equal e.Enclave.state Enclave.Initialized) then
        Error "enter of uninitialized enclave"
      else Ok ()
  | Hc_exit -> (
      match st.State.active with
      | Principal.Os -> Error "exit outside an enclave"
      | Principal.Enclave _ -> Ok ())

let enabled_of st actions =
  List.filter (fun a -> Result.is_ok (precondition st a)) actions

let configures (st : State.t) p action =
  match action with
  | Const _ | Compute _ | Load _ | Store _ -> false
  | Hc_create _ ->
      (* the enclave about to be created is the observer-to-be *)
      Principal.equal p (Principal.Enclave st.State.mon.Absdata.next_eid)
  | Hc_add_page { eid; _ } | Hc_remove_page { eid; _ } | Hc_init_done { eid } ->
      Principal.equal p (Principal.Enclave eid)
  | Hc_enter { eid } ->
      (* transfers activity from the OS to the enclave: both views move *)
      Principal.equal p (Principal.Enclave eid) || Principal.equal p Principal.Os
  | Hc_exit ->
      Principal.equal p st.State.active || Principal.equal p Principal.Os
