open Hyperenclave
module Refine = Mirverif.Refine
module Value = Mir.Value
module Word = Mir.Word

let u64 = Marshal_v.u64

(* ------------------------------------------------------------------ *)
(* Input pools                                                         *)

type pool = {
  layout : Layout.t;
  states : (string * Absdata.t) list;
  roots : Absdata.t -> int64 list;  (* table roots worth exercising *)
  vas : int64 list;
  entries : int64 list;  (* raw pte words *)
  flags : int64 list;
}

let page l i = Int64.mul (Int64.of_int (Geometry.page_size l.Layout.geom)) (Int64.of_int i)

let make_pool ?(seed = 2024) layout =
  let g = layout.Layout.geom in
  (* a state whose tables carry level-1 mappings at small addresses *)
  let lifecycle =
    let o =
      Hypercall.create (Boot.booted layout) ~elrange_base:0L ~elrange_pages:2
        ~mbuf_va:(page layout (layout.Layout.normal_pages))
    in
    let o2 = Hypercall.add_page o.Hypercall.d ~eid:o.Hypercall.value ~va:0L in
    let o3 = Hypercall.add_page o2.Hypercall.d ~eid:o.Hypercall.value ~va:(page layout 1) in
    o3.Hypercall.d
  in
  (* a state with deliberately corrupted tables: entries escaping the
     frame area (in-range and out-of-range) and a dangling next-table
     pointer — the inputs the malformed-table paths exist for *)
  let corrupted, corrupted_root =
    let d = Boot.booted layout in
    match Pt_flat.create_table d with
    | Error _ -> (d, 0)
    | Ok (d, root) ->
        let evil =
          [
            (0, Pte.make g ~pa:(page layout 2) Flags.user_rw);
            (1, Pte.make g ~pa:layout.Layout.epc_base Flags.present_rw);
            (2, Pte.make g ~pa:(Layout.frame_addr layout (layout.Layout.frame_count - 1)) Flags.user_rw);
          ]
        in
        ( List.fold_left
            (fun d (index, e) ->
              match Pt_flat.write_entry d ~frame:root ~index e with
              | Ok d -> d
              | Error _ -> d)
            d evil,
          root )
  in
  let states =
    ("pristine", Absdata.create layout)
    :: ("booted", Boot.booted layout)
    :: ("lifecycle", lifecycle)
    :: ("corrupted", corrupted)
    :: Gen.absdata_states ~n:4 ~seed ~steps:25 layout
  in
  let roots (d : Absdata.t) =
    let enclave_roots =
      List.concat_map
        (fun eid ->
          match Absdata.find_enclave d eid with
          | Ok e -> [ Int64.of_int e.Enclave.gpt_root; Int64.of_int e.Enclave.ept_root ]
          | Error _ -> [])
        (Absdata.enclave_ids d)
    in
    let os_root =
      match d.Absdata.os_ept_root with Some r -> [ Int64.of_int r ] | None -> []
    in
    (* include the deliberately corrupted table, an almost-certainly-
       unallocated frame, and a wildly invalid one *)
    os_root @ enclave_roots
    @ [ Int64.of_int corrupted_root;
        Int64.of_int (layout.Layout.frame_count - 1);
        Int64.of_int (layout.Layout.frame_count + 3) ]
  in
  let vas =
    [
      0L;
      page layout 1;
      page layout 3;
      Int64.add (page layout 1) 8L;
      Int64.add (page layout 1) 1L;
      Int64.sub (Geometry.va_limit g) (Int64.of_int (Geometry.page_size g));
      Geometry.va_limit g;
      0xDEAD_BEE0L;
    ]
  in
  let entries =
    [
      0L;
      Pte.make g ~pa:layout.Layout.epc_base Flags.user_rw;
      Pte.make g ~pa:layout.Layout.frame_base Flags.user_rw;
      Pte.make g ~pa:(Layout.frame_addr layout 1) Flags.present_rw;
      Pte.make g ~pa:(page layout 2) (Flags.with_huge Flags.user_rw);
      0xFFFF_FFFF_FFFF_FFFFL;
      42L;
    ]
  in
  let flags =
    List.map (Flags.encode g)
      [ Flags.user_rw; Flags.user_r; Flags.present_rw; Flags.none;
        Flags.with_huge Flags.user_rw ]
  in
  { layout; states; roots; vas; entries; flags }

(* ------------------------------------------------------------------ *)
(* Case builders                                                       *)

(* args lists per state *)
let cases_of pool mk =
  List.concat_map
    (fun (label, d) ->
      List.map
        (fun args ->
          Refine.case
            ~label:(fun () ->
              Printf.sprintf "%s %s" label
                (String.concat "," (List.map Value.to_string args)))
            d args)
        (mk d))
    pool.states


let levels pool =
  List.init (pool.layout.Layout.geom.Geometry.levels + 2) (fun i -> Int64.of_int i)

let frame_indices pool =
  [ 0L; 1L; 2L; Int64.of_int (pool.layout.Layout.frame_count - 1);
    Int64.of_int pool.layout.Layout.frame_count;
    Int64.of_int (pool.layout.Layout.frame_count + 5); 100000L ]

let epc_indices pool =
  [ 0L; 1L; Int64.of_int (pool.layout.Layout.epc_pages - 1);
    Int64.of_int pool.layout.Layout.epc_pages; 999L ]

let indices pool =
  [ 0L; 1L; Int64.of_int (Geometry.entries_per_table pool.layout.Layout.geom - 1);
    Int64.of_int (Geometry.entries_per_table pool.layout.Layout.geom) ]

let product2 xs ys = List.concat_map (fun x -> List.map (fun y -> [ x; y ]) ys) xs

let product3 xs ys zs =
  List.concat_map (fun x -> List.concat_map (fun y -> List.map (fun z -> [ x; y; z ]) zs) ys) xs

(* Sample a list down to bound the case count (deterministic). *)
let sample n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    let step = len / n in
    List.filteri (fun i _ -> i mod step = 0) xs

let uv = List.map u64

(* Enclave struct cases: real enclaves of the state + synthetic ones. *)
let enclave_values pool (d : Absdata.t) =
  let real =
    List.filter_map
      (fun eid ->
        match Absdata.find_enclave d eid with
        | Ok e -> Some (Mem_spec.enclave_to_value e)
        | Error _ -> None)
      (Absdata.enclave_ids d)
  in
  let synth state gpt ept =
    Mem_spec.enclave_to_value
      {
        Enclave.eid = 7;
        state;
        elrange_base = 0L;
        elrange_pages = 2;
        mbuf_va = page pool.layout 8;
        mbuf_pages = pool.layout.Layout.mbuf_pages;
        gpt_root = gpt;
        ept_root = ept;
      }
  in
  real
  @ [ synth Enclave.Created 0 1; synth Enclave.Initialized 0 1;
      synth Enclave.Created (pool.layout.Layout.frame_count + 2) 0 ]

let method_cases pool mk_args =
  (* self passed as a pointer into object memory; the spec receives the
     struct by value (paper Sec. 3.4 case 1) *)
  List.concat_map
    (fun (label, d) ->
      List.concat_map
        (fun self_value ->
          List.map
            (fun rest ->
              let self_path = Mir.Path.global "self_obj" in
              let mem = Mir.Mem.define (Mir.Path.Global "self_obj") self_value Mir.Mem.empty in
              Refine.case
                ~label:(fun () ->
                  Printf.sprintf "%s self=%s (%s)" label
                    (Value.to_string self_value)
                    (String.concat "," (List.map Value.to_string rest)))
                ~spec_args:(self_value :: rest) ~mem d
                (Value.ptr_path self_path :: rest))
            (mk_args d))
        (enclave_values pool d))
    pool.states

(* ------------------------------------------------------------------ *)
(* Per-function case tables                                            *)

let args_for pool fn (d : Absdata.t) : _ Value.t list list =
  let l = pool.layout in
  let pg i = page l i in
  match fn with
  | "pte_empty" | "frame_alloc" | "create_table" | "as_create" | "epcm_find_free" ->
      [ [] ]
  | "pte_is_present" | "pte_is_huge" | "pte_is_writable" | "pte_is_user"
  | "pte_addr" | "pte_flag_bits" | "entry_target_frame" ->
      List.map (fun e -> [ u64 e ]) pool.entries
  | "pte_make" | "pte_set_flags" ->
      product2 pool.entries pool.flags |> List.map uv
  | "page_offset" | "page_base" | "is_page_aligned" | "va_ok" ->
      List.map (fun va -> [ u64 va ]) pool.vas
  | "span_shift" -> List.map (fun lv -> [ u64 lv ]) (levels pool)
  | "va_index" -> product2 (levels pool) pool.vas |> List.map uv
  | "frame_bit_is_set" | "frame_free" | "frame_is_allocated" | "frame_mark"
  | "frame_clear" | "frame_addr" | "table_zero" ->
      List.map (fun f -> [ u64 f ]) (frame_indices pool)
  | "entry_pa" | "read_entry" ->
      product2 (frame_indices pool) (indices pool) |> List.map uv
  | "write_entry" ->
      product3 (frame_indices pool) (indices pool) (sample 3 pool.entries)
      |> List.map uv
  | "walk" | "unmap_page" | "walk_alloc" | "query" | "translate" ->
      product2 (pool.roots d) pool.vas |> List.map uv
  | "map_page" | "map_range_one" ->
      List.concat_map
        (fun root ->
          List.concat_map
            (fun va ->
              List.map
                (fun (pa, fl) -> uv [ root; va; pa; fl ])
                [
                  (l.Layout.epc_base, List.nth pool.flags 0);
                  (pg 2, List.nth pool.flags 1);
                  (pg 1, List.nth pool.flags 3);
                  (Int64.add l.Layout.epc_base 8L, List.nth pool.flags 0);
                  (Layout.phys_limit l, List.nth pool.flags 0);
                ])
            (sample 5 pool.vas))
        (pool.roots d)
  | "map_range" ->
      List.concat_map
        (fun root ->
          List.map
            (fun pages -> uv [ root; 0L; l.Layout.epc_base; pages; List.nth pool.flags 0 ])
            [ 0L; 1L; 2L; 3L ])
        (sample 2 (pool.roots d))
  | "epcm_set_valid" ->
      List.map (fun p -> uv [ p; 3L; pg 1 ]) (epc_indices pool)
  | "epcm_clear" | "epc_page_addr" | "epc_page_zero" ->
      List.map (fun p -> [ u64 p ]) (epc_indices pool)
  | "mbuf_map_one" ->
      List.map
        (fun (gpt, ept) -> uv [ gpt; ept; pg 8; l.Layout.mbuf_base ])
        (match pool.roots d with
        | a :: b :: _ -> [ (a, b); (b, a) ]
        | [ a ] -> [ (a, a) ]
        | [] -> [])
  | "mbuf_map" ->
      List.map
        (fun (gpt, ept) -> uv [ gpt; ept; pg 8 ])
        (match pool.roots d with a :: b :: _ -> [ (a, b) ] | _ -> [])
  | "ranges_disjoint" ->
      [
        uv [ 0L; 2L; pg 2; 1L ]; uv [ 0L; 3L; pg 2; 1L ]; uv [ pg 4; 2L; 0L; 4L ];
        uv [ 0L; 2L; 0L; 2L ];
      ]
  | "range_ok" ->
      List.map (fun (b, p) -> uv [ b; p ])
        [ (0L, 2L); (0L, 0L); (1L, 1L); (pg 14, 2L); (pg 14, 3L); (pg 100, 1L) ]
  | "hc_create" ->
      [
        uv [ 0L; 2L; pg 8 ];
        uv [ 0L; 2L; pg 14 ];
        uv [ 1L; 2L; pg 8 ];
        uv [ pg 8; 1L; pg 8 ];
        uv [ 0L; 100L; pg 8 ];
        uv [ pg 4; 4L; pg 8 ];
      ]
  | _ -> []

let eq : Absdata.t Refine.equiv = Refine.equiv Absdata.equal

type ctx = {
  ctx_layout : Layout.t;
  (* the input pool every battery draws from: built with the first
     battery, so a fully cached run builds none *)
  ctx_pool : pool Lazy.t;
  (* per-function check memo: generated cases are deterministic given
     (seed, layout), so each function's check is built once per ctx
     instead of once per obligation run.  Built on first use; a run
     whose obligations all hit the proof cache builds none. *)
  ctx_checks : (string, (string * Absdata.t Refine.check) option) Hashtbl.t;
  (* per-layer override-composed compiled environments: every spec-owned
     function of the layer is linked as a stub of its oracle spec
     ({!spec_stub}), so same-layer calls execute callee specs instead of
     callee bodies.  Shares {!Layers.compile_memo}, whose keys include
     call-site linkage. *)
  ctx_cenvs : (string, Absdata.t Mir.Compile.t) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Alias footprints                                                    *)

let trusted_prims =
  List.map (fun (s : Absdata.t Mirverif.Spec.t) -> s.Mirverif.Spec.name) Trusted.all

(* The trusted primitives only touch the axiomatized abstract state —
   that is their definition — so their footprint is the [Labs]
   location and caller footprints through them stay exact. *)
let prim_summary g =
  if List.mem g trusted_prims then
    Some
      {
        Analysis.Alias.fp =
          {
            Analysis.Alias.reads = Analysis.Alias.LocSet.singleton Analysis.Alias.Labs;
            writes = Analysis.Alias.LocSet.singleton Analysis.Alias.Labs;
          };
        ret = Analysis.Alias.LocSet.empty;
        esc = Analysis.Alias.IntSet.empty;
      }
  else None

(* Andersen summaries of the whole memory module, one map per layout,
   shared by every alias-phase obligation and computed on first use. *)
let alias_cache : (Layout.t, Analysis.Alias.info Analysis.Alias.StrMap.t) Hashtbl.t =
  Hashtbl.create 4

let alias_summaries layout =
  match Hashtbl.find_opt alias_cache layout with
  | Some infos -> infos
  | None ->
      let infos =
        Analysis.Alias.analyze ~prim:prim_summary
          (Layers.compiled layout).Rustlite.Pipeline.program
      in
      Hashtbl.add alias_cache layout infos;
      infos

let build_check ctx fn =
  match Layers.layer_of_function ctx.ctx_layout fn with
  | None -> None
  | Some lname ->
      let pool = Lazy.force ctx.ctx_pool in
      let spec =
        match Mem_spec.find ctx.ctx_layout fn with
        | Some s -> s
        | None -> invalid_arg ("no spec for " ^ fn)
      in
      let cases =
        match fn with
        | "Enclave::in_elrange" | "Enclave::add_page" | "Enclave::remove_page" ->
            method_cases pool (fun _ -> List.map (fun va -> [ u64 va ]) (sample 5 pool.vas))
        | _ -> cases_of pool (args_for pool fn)
      in
      Some (lname, Refine.check ~fn ~spec ~eq cases)

let check_function ctx fn =
  match Hashtbl.find_opt ctx.ctx_checks fn with
  | Some r -> r
  | None ->
      let r = build_check ctx fn in
      Hashtbl.add ctx.ctx_checks fn r;
      r

(* ------------------------------------------------------------------ *)
(* Override composition                                                *)

(* Object-view argument resolution: a concrete pointer dereferences
   through the caller's memory, a trusted pointer loads from the
   abstract state, and everything else (plain data, RData handles —
   whose pointees are deliberately opaque) passes through unchanged. *)
let resolve_arg abs mem (v : Absdata.t Value.t) =
  match v with
  | Value.Ptr (Value.Concrete path) -> (
      match Mir.Mem.read mem path with
      | Ok pointee -> Ok pointee
      | Error msg -> Error ("points-to resolution: " ^ msg))
  | Value.Ptr (Value.Trusted t) -> (
      match t.Value.tp_load abs with
      | Ok pointee -> Ok pointee
      | Error msg -> Error ("trusted pointee load: " ^ msg))
  | v -> Ok v

(* A proven callee's call-site stub: its oracle spec, run on the
   pointee values of its pointer arguments (resolved right to left, so
   the rightmost unresolvable argument names the error).  A spec
   undefined on the input faults the caller; it never fabricates a
   result. *)
let spec_stub (s : Absdata.t Mirverif.Spec.t) =
  {
    Mir.Compile.ov_name = s.Mirverif.Spec.name;
    ov_exec =
      (fun abs mem args ->
        let resolved =
          List.fold_right
            (fun v acc ->
              Result.bind acc (fun rest ->
                  Result.map (fun v -> v :: rest) (resolve_arg abs mem v)))
            args (Ok [])
        in
        Result.bind resolved (Mirverif.Spec.apply s abs));
  }

(* Composed environment for one layer: the layer's interpreter
   environment with every spec-owned function of the layer linked as a
   stub of its spec.  The check's entry function still runs its own
   body ({!Mir.Compile.call} enters via the body table), so a function
   is never proven against a stub of itself. *)
let build_composed ctx lname =
  let layout = ctx.ctx_layout in
  let overrides =
    List.filter_map
      (fun fn -> Option.map spec_stub (Mem_spec.find layout fn))
      (Layers.functions_of_layer layout lname)
  in
  Mir.Compile.compile ~cache:Layers.compile_memo ~overrides
    (Layers.env_for layout ~layer:lname)

let composed_for ctx lname =
  match Hashtbl.find_opt ctx.ctx_cenvs lname with
  | Some cenv -> cenv
  | None ->
      let cenv = build_composed ctx lname in
      Hashtbl.add ctx.ctx_cenvs lname cenv;
      cenv

let ctx ?(seed = 2024) layout =
  (* a prewarm: a ctx built up front pays for the layout's front end
     and boot here, not in its first battery *)
  Layers.warm layout;
  { ctx_layout = layout; ctx_pool = lazy (make_pool ~seed layout);
    ctx_checks = Hashtbl.create 64;
    ctx_cenvs = Hashtbl.create 16 }

let run_function ctx fn =
  Option.map
    (fun (lname, c) ->
      (lname, Refine.run_compiled (Layers.compiled_for ctx.ctx_layout ~layer:lname) c))
    (check_function ctx fn)

(* Compositional path: the identical case battery against the
   override-composed environment, so same-layer callees execute their
   specs instead of their bodies.  Sound only once those callees
   are themselves proven — the engine gates this behind the callee
   obligations' outcomes and falls back to {!run_function}. *)
let run_function_composed ctx fn =
  Option.map
    (fun (lname, c) -> (lname, Refine.run_compiled (composed_for ctx lname) c))
    (check_function ctx fn)

(* Degraded path: the identical case battery under the reference
   interpreter.  The engine's supervisor runs this when the compiled
   executor crashes — the battery is memoized in the ctx, so the only
   extra cost is the (slower) interpreted execution itself. *)
let run_function_interp ctx fn =
  Option.map
    (fun (lname, c) ->
      (lname, Refine.run_interp (Layers.env_for ctx.ctx_layout ~layer:lname) c))
    (check_function ctx fn)

let checks ?seed layout =
  let ctx = ctx ?seed layout in
  List.concat_map
    (fun lname ->
      List.filter_map (check_function ctx) (Layers.functions_of_layer layout lname)
      |> List.map (fun (l, c) -> ((l : string), c)))
    Mem_spec.layer_names

let run_layer ?seed layout lname =
  let ctx = ctx ?seed layout in
  Layers.functions_of_layer layout lname
  |> List.filter_map (run_function ctx)
  |> List.map snd

let run_all ?seed layout =
  let ctx = ctx ?seed layout in
  List.concat_map
    (fun lname ->
      Layers.functions_of_layer layout lname |> List.filter_map (run_function ctx))
    Mem_spec.layer_names

let total_cases results =
  List.fold_left
    (fun (t, p, s, f) (_, (r : Mirverif.Report.t)) ->
      ( t + r.Mirverif.Report.total,
        p + r.Mirverif.Report.passed,
        s + r.Mirverif.Report.skipped,
        f + Mirverif.Report.failure_count r ))
    (0, 0, 0, 0) results
