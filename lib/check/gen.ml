open Hyperenclave
open Security
module Word = Mir.Word

let page_va layout i =
  Int64.mul (Int64.of_int (Geometry.page_size layout.Layout.geom)) (Int64.of_int i)

let vpage_count layout =
  let g = layout.Layout.geom in
  1 lsl (Geometry.va_bits g - g.Geometry.page_shift)

let mbuf_va_page layout =
  (* place every enclave's marshalling window at the same, valid page:
     halfway through the virtual space *)
  vpage_count layout / 2

let random_action rng layout =
  let vpages = vpage_count layout in
  let mbuf_page = mbuf_va_page layout in
  let kind, rng = Rng.int_below rng 11 in
  match kind with
  | 0 ->
      let dst, rng = Rng.int_below rng State.nregs in
      let v, rng = Rng.next rng in
      (Transition.Const { dst; value = v }, rng)
  | 1 ->
      let dst, rng = Rng.int_below rng State.nregs in
      let src1, rng = Rng.int_below rng State.nregs in
      let src2, rng = Rng.int_below rng State.nregs in
      (Transition.Compute { dst; src1; src2 }, rng)
  | 2 | 3 ->
      let dst, rng = Rng.int_below rng State.nregs in
      let p, rng = Rng.int_below rng vpages in
      let off, rng = Rng.int_below rng (Geometry.page_size layout.Layout.geom / 8) in
      ( Transition.Load
          { dst; va = Int64.add (page_va layout p) (Int64.of_int (8 * off)) },
        rng )
  | 4 | 5 ->
      let src, rng = Rng.int_below rng State.nregs in
      let p, rng = Rng.int_below rng vpages in
      let off, rng = Rng.int_below rng (Geometry.page_size layout.Layout.geom / 8) in
      ( Transition.Store
          { src; va = Int64.add (page_va layout p) (Int64.of_int (8 * off)) },
        rng )
  | 6 ->
      let base, rng = Rng.int_below rng 4 in
      let pages, rng = Rng.int_below rng 2 in
      ( Transition.Hc_create
          {
            elrange_base = page_va layout base;
            elrange_pages = pages + 1;
            mbuf_va = page_va layout mbuf_page;
          },
        rng )
  | 7 ->
      let eid, rng = Rng.int_below rng 4 in
      let p, rng = Rng.int_below rng 6 in
      (Transition.Hc_add_page { eid = eid + 1; va = page_va layout p }, rng)
  | 8 ->
      let eid, rng = Rng.int_below rng 4 in
      let which, rng = Rng.bool rng in
      ( (if which then Transition.Hc_init_done { eid = eid + 1 }
         else Transition.Hc_enter { eid = eid + 1 }),
        rng )
  | 9 ->
      let eid, rng = Rng.int_below rng 4 in
      let p, rng = Rng.int_below rng 6 in
      (Transition.Hc_remove_page { eid = eid + 1; va = page_va layout p }, rng)
  | _ -> (Transition.Hc_exit, rng)

let trace ~seed ~steps layout =
  let rec go st rng k =
    if k <= 0 then st
    else
      let action, rng = random_action rng layout in
      let st = match Transition.step st action with Ok st' -> st' | Error _ -> st in
      go st rng (k - 1)
  in
  go (State.boot layout) (Rng.make seed) steps

(* Switch into an enclave if possible, building one when none exists;
   keeps the state set from being dominated by OS-active states.
   [prefer] names the enclave id the caller wants running (enclaves are
   created until that id exists). *)
let ensure_enclave_active ?prefer layout st =
  let run st a = match Transition.step st a with Ok s -> s | Error _ -> st in
  let mbuf_page = mbuf_va_page layout in
  let build_and_enter st eid =
    (* create enclaves until [eid] exists, then populate, seal, enter *)
    let rec create st =
      if st.State.mon.Hyperenclave.Absdata.next_eid > eid then st
      else
        let st' =
          run st
            (Transition.Hc_create
               {
                 elrange_base = 0L;
                 elrange_pages = 1;
                 mbuf_va = page_va layout mbuf_page;
               })
        in
        (* a failing hypercall still rewrites the status register, so
           progress is judged on the enclave counter *)
        if
          st'.State.mon.Hyperenclave.Absdata.next_eid
          = st.State.mon.Hyperenclave.Absdata.next_eid
        then st
        else create st'
    in
    let st = create st in
    let st = run st (Transition.Hc_add_page { eid; va = 0L }) in
    let st = run st (Transition.Hc_init_done { eid }) in
    run st (Transition.Hc_enter { eid })
  in
  let want = match prefer with Some eid -> Principal.Enclave eid | None -> st.State.active in
  match (st.State.active, prefer) with
  | Principal.Enclave _, None -> st
  | active, _ when Principal.equal active want && prefer <> None -> st
  | _, Some eid -> (
      let st = match st.State.active with
        | Principal.Enclave _ -> run st Transition.Hc_exit
        | Principal.Os -> st
      in
      match Transition.step st (Transition.Hc_enter { eid }) with
      | Ok st' -> st'
      | Error _ -> build_and_enter st eid)
  | Principal.Os, None -> (
      let try_enter =
        List.fold_left
          (fun acc eid ->
            match acc with
            | Some _ -> acc
            | None -> (
                match Transition.step st (Transition.Hc_enter { eid }) with
                | Ok st' -> Some st'
                | Error _ -> None))
          None [ 1; 2; 3; 4 ]
      in
      match try_enter with Some st' -> st' | None -> build_and_enter st 1)

(* ------------------------------------------------------------------ *)
(* Secret perturbation                                                 *)

let write_word phys addr v =
  match Phys_mem.write64 phys addr v with Ok phys -> phys | Error _ -> phys

(* Scribble a random word into each page of [pages]. *)
let scribble_pages rng phys pages =
  List.fold_left
    (fun (phys, rng) base ->
      let off, rng = Rng.int_below rng 4 in
      let v, rng = Rng.next rng in
      (write_word phys (Int64.add base (Int64.of_int (8 * off))) v, rng))
    (phys, rng) pages

let region_pages layout base pages =
  List.init pages (fun i ->
      Int64.add base
        (Int64.mul (Int64.of_int (Geometry.page_size layout.Layout.geom)) (Int64.of_int i)))

let perturb_memory ~seed ~observer (d : Absdata.t) =
  let rng = Rng.make seed in
  let layout = d.Absdata.layout in
  (* 1. EPC pages of enclaves other than the observer *)
  let secret_epc =
    Epcm.fold
      (fun page state acc ->
        match state with
        | Epcm.Valid { eid; _ }
          when not (Principal.equal observer (Principal.Enclave eid)) ->
            Layout.epc_page_addr layout page :: acc
        | Epcm.Valid _ | Epcm.Free -> acc)
      d.Absdata.epcm []
  in
  let phys, rng = scribble_pages rng d.Absdata.phys secret_epc in
  (* 2. normal memory, invisible to enclave observers *)
  let phys, rng =
    match observer with
    | Principal.Os -> (phys, rng)
    | Principal.Enclave _ ->
        let normal =
          region_pages layout layout.Layout.normal_base layout.Layout.normal_pages
          |> List.filter (fun base ->
                 not
                   (Layout.region_equal (Layout.region_of layout base) Layout.Mbuf))
        in
        scribble_pages rng phys normal
  in
  (* 3. marshalling-buffer bytes are invisible to everyone (oracle) *)
  let phys, rng =
    scribble_pages rng phys
      (region_pages layout layout.Layout.mbuf_base layout.Layout.mbuf_pages)
  in
  ({ d with Absdata.phys }, rng)

let perturb_registers rng ~observer (st : State.t) =
  (* 4. saved contexts of other principals *)
  let randomize_regs rng =
    let regs = State.zero_regs () in
    let rng = ref rng in
    for i = 0 to State.nregs - 1 do
      let v, rng' = Rng.next !rng in
      regs.(i) <- v;
      rng := rng'
    done;
    (regs, !rng)
  in
  let ctx, rng =
    Principal.Map.fold
      (fun p _ (ctx, rng) ->
        if Principal.equal p observer then (ctx, rng)
        else
          let regs, rng = randomize_regs rng in
          (Principal.Map.add p regs ctx, rng))
      st.State.ctx (st.State.ctx, rng)
  in
  (* 5. live registers of an active non-observer principal *)
  let regs, _rng =
    if Principal.equal st.State.active observer then (st.State.regs, rng)
    else randomize_regs rng
  in
  { st with State.ctx; regs }

let perturb_secrets ~seed ~observer (st : State.t) =
  let mon, rng = perturb_memory ~seed ~observer st.State.mon in
  perturb_registers rng ~observer { st with State.mon }

(* ------------------------------------------------------------------ *)
(* Security corpus                                                     *)

module Corpus = struct
  type t = {
    seed : int;
    steps : int;
    layout : Layout.t;
    traces : (int, State.t) Hashtbl.t;  (** offset [k]: the trace of seed + k *)
    active : (int * int option, State.t) Hashtbl.t;
        (** (offset, preferred enclave): the trace switched into an enclave *)
    pairs : (int * Principal.t * int, string * State.t * State.t) Hashtbl.t;
        (** (seed offset, observer, index): a secret pair *)
  }

  let create ~seed ~steps layout =
    { seed; steps; layout; traces = Hashtbl.create 32; active = Hashtbl.create 32;
      pairs = Hashtbl.create 64 }

  let traces c = Hashtbl.length c.traces

  (* An entry is added once computed, never before: a computation that
     raises leaves the table as it was, for the next reader to retry. *)
  let memo tbl key compute =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = compute () in
        Hashtbl.add tbl key v;
        v

  let trace c k =
    memo c.traces k (fun () -> trace ~seed:(c.seed + k) ~steps:c.steps c.layout)

  let enclave_active ?prefer c k =
    memo c.active (k, prefer) (fun () ->
        ensure_enclave_active ?prefer c.layout (trace c k))

  let state c i =
    if i mod 2 = 1 then
      (Printf.sprintf "trace[seed=%d+%d,enclave]" c.seed i, enclave_active c i)
    else (Printf.sprintf "trace[seed=%d+%d]" c.seed i, trace c i)

  let states c ~lo ~hi = List.init (hi - lo) (fun j -> state c (lo + j))

  let pair c ~off ~observer i =
    memo c.pairs (off, observer, i) (fun () ->
        let k = off + i in
        (* alternate OS-active and enclave-active bases so both the
           active (5.3) and inactive (5.4) lemmas get non-vacuous cases;
           when the observer is an enclave, make it the one that runs *)
        let st =
          if i mod 2 = 1 then
            match observer with
            | Principal.Enclave eid -> enclave_active ~prefer:eid c k
            | Principal.Os -> enclave_active c k
          else trace c k
        in
        let st' = perturb_secrets ~seed:(c.seed + k + 7919) ~observer st in
        (Printf.sprintf "pair[seed=%d+%d]" (c.seed + off) i, st, st'))

  let pairs c ~off ~observer ~n = List.init n (pair c ~off ~observer)
end

let states_range ~lo ~hi ~seed ~steps layout =
  Corpus.states (Corpus.create ~seed ~steps layout) ~lo ~hi

let states ?(n = 20) ~seed ~steps layout = states_range ~lo:0 ~hi:n ~seed ~steps layout

let absdata_states ?n ~seed ~steps layout =
  List.map (fun (label, st) -> (label, st.State.mon)) (states ?n ~seed ~steps layout)

let secret_pairs ?(n = 20) ~seed ~steps ~observer layout =
  Corpus.pairs (Corpus.create ~seed ~steps layout) ~off:0 ~observer ~n

let schedules ?(n = 10) ?(len = 12) ~seed layout =
  List.init n (fun i ->
      let rec go rng k acc =
        if k <= 0 then List.rev acc
        else
          let a, rng = random_action rng layout in
          go rng (k - 1) (a :: acc)
      in
      go (Rng.make (seed + (i * 131))) len [])

(* ------------------------------------------------------------------ *)
(* Action battery                                                      *)

let action_battery layout =
  let mbuf_page = mbuf_va_page layout in
  let reg_ops =
    [
      Transition.Const { dst = 0; value = 42L };
      Transition.Const { dst = 2; value = 7L };
      Transition.Compute { dst = 1; src1 = 0; src2 = 2 };
      Transition.Compute { dst = 3; src1 = 3; src2 = 3 };
    ]
  in
  let mem_targets =
    (* pages chosen to land in every interesting region of the virtual
       space: ELRANGE candidates, mbuf window, plain normal memory,
       high unmapped addresses *)
    [ 0; 1; 2; 4; mbuf_page; mbuf_page + 1; vpage_count layout - 1 ]
  in
  let mem_ops =
    List.concat_map
      (fun p ->
        [
          Transition.Load { dst = 0; va = page_va layout p };
          Transition.Store { src = 1; va = page_va layout p };
          Transition.Load { dst = 2; va = Int64.add (page_va layout p) 8L };
        ])
      mem_targets
  in
  let hypercalls =
    [
      Transition.Hc_create
        {
          elrange_base = 0L;
          elrange_pages = 2;
          mbuf_va = page_va layout mbuf_page;
        };
      Transition.Hc_create
        {
          (* invalid: overlaps the mbuf window *)
          elrange_base = page_va layout mbuf_page;
          elrange_pages = 1;
          mbuf_va = page_va layout mbuf_page;
        };
      Transition.Hc_add_page { eid = 1; va = 0L };
      Transition.Hc_add_page { eid = 1; va = page_va layout 1 };
      Transition.Hc_add_page { eid = 2; va = page_va layout 1 };
      Transition.Hc_add_page { eid = 99; va = 0L };
      Transition.Hc_remove_page { eid = 1; va = 0L };
      Transition.Hc_remove_page { eid = 1; va = page_va layout 1 };
      Transition.Hc_remove_page { eid = 2; va = 0L };
      Transition.Hc_remove_page { eid = 99; va = 0L };
      Transition.Hc_init_done { eid = 1 };
      Transition.Hc_init_done { eid = 2 };
      Transition.Hc_enter { eid = 1 };
      Transition.Hc_enter { eid = 2 };
      Transition.Hc_exit;
    ]
  in
  reg_ops @ mem_ops @ hypercalls
