module Layer = Mirverif.Layer

let compile_cache : (Layout.t, Rustlite.Pipeline.output) Hashtbl.t = Hashtbl.create 4

let compiled layout =
  match Hashtbl.find_opt compile_cache layout with
  | Some o -> o
  | None -> (
      match Rustlite.Pipeline.compile (Mem_source.source layout) with
      | Ok o ->
          Hashtbl.add compile_cache layout o;
          o
      | Error msg ->
          invalid_arg (Printf.sprintf "memory module failed to compile: %s" msg))

(* Hex MD5 of each body's MIRlight text: the ingredient every
   body-keyed proof-cache fingerprint shares, computed once per layout
   instead of once per fingerprint that mentions the body. *)
let digest_cache : (Layout.t, (string, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let digests layout =
  match Hashtbl.find_opt digest_cache layout with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      Mir.Syntax.fold_bodies
        (fun fn body () ->
          Hashtbl.replace t fn (Digest.to_hex (Digest.string (Mir.Pp.body_to_string body))))
        (compiled layout).Rustlite.Pipeline.program ();
      Hashtbl.add digest_cache layout t;
      t

let body_digest layout fn =
  Option.value ~default:"missing" (Hashtbl.find_opt (digests layout) fn)

let stack_cache : (Layout.t, Absdata.t Layer.stack) Hashtbl.t = Hashtbl.create 4

let build_stack layout =
  let out = compiled layout in
  let tagged = Mem_spec.all layout in
  List.map
    (fun lname ->
      if String.equal lname "Trusted" then
        Layer.make ~name:lname ~exports:Trusted.all ~code:[]
      else
        let specs =
          List.filter_map
            (fun (t : Mem_spec.t) ->
              if String.equal t.Mem_spec.layer lname then Some t.Mem_spec.spec
              else None)
            tagged
        in
        let code =
          List.filter_map
            (fun (s : Absdata.t Mirverif.Spec.t) ->
              Mir.Syntax.find_body out.Rustlite.Pipeline.program s.Mirverif.Spec.name)
            specs
        in
        Layer.make ~name:lname ~exports:specs ~code)
    Mem_spec.layer_names

let stack layout =
  match Hashtbl.find_opt stack_cache layout with
  | Some s -> s
  | None ->
      let s = build_stack layout in
      Hashtbl.add stack_cache layout s;
      s

let env_for layout ~layer = Layer.env_for (stack layout) ~layer

(* Closure-compiled environments for the verification hot path.  One
   compiled form per (layout, layer), backed by a shared per-body memo
   so bodies reused across layers compile once.  Compiled on first use,
   by whichever domain runs the layer's first code-proof obligation, so
   a run whose obligations all hit the proof cache compiles nothing.
   Guarded by a mutex; the per-body memo has its own. *)
let compile_memo : Absdata.t Mir.Compile.cache = Mir.Compile.cache ()

let cenv_mutex = Mutex.create ()

let cenv_cache : (Layout.t * string, Absdata.t Mir.Compile.t) Hashtbl.t =
  Hashtbl.create 32

let compiled_for layout ~layer =
  Mutex.protect cenv_mutex (fun () ->
      match Hashtbl.find_opt cenv_cache (layout, layer) with
      | Some ct -> ct
      | None ->
          let ct = Mir.Compile.compile ~cache:compile_memo (env_for layout ~layer) in
          Hashtbl.add cenv_cache (layout, layer) ct;
          ct)

let layer_of_function layout name =
  Option.map (fun (t : Mem_spec.t) -> t.Mem_spec.layer) (Mem_spec.lookup layout name)

let functions_of_layer = Mem_spec.functions_of_layer

(* Per body of the compiled module: its spec-owned callees and the
   subset in its own layer.  Built once per layout under a mutex, like
   the spec index; a published table is only read. *)
let calls_mu = Mutex.create ()

let calls_cache : (Layout.t, (string, string list * string list) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 4

let build_calls layout =
  let t = Hashtbl.create 64 in
  Mir.Syntax.fold_bodies
    (fun fn body () ->
      let seen = Hashtbl.create 8 in
      let callees =
        List.filter
          (fun g ->
            g <> fn
            && (not (Hashtbl.mem seen g))
            && Option.is_some (Mem_spec.lookup layout g)
            &&
            (Hashtbl.add seen g ();
             true))
          (Layer.calls_of_body body)
      in
      let same_layer =
        match layer_of_function layout fn with
        | None -> []
        | Some lname ->
            List.filter (fun g -> layer_of_function layout g = Some lname) callees
      in
      Hashtbl.replace t fn (callees, same_layer))
    (compiled layout).Rustlite.Pipeline.program ();
  t

let calls layout fn =
  let t =
    Mutex.protect calls_mu (fun () ->
        match Hashtbl.find_opt calls_cache layout with
        | Some t -> t
        | None ->
            let t = build_calls layout in
            Hashtbl.add calls_cache layout t;
            t)
  in
  Option.value ~default:([], []) (Hashtbl.find_opt t fn)

let callees layout fn = fst (calls layout fn)
let same_layer_callees layout fn = snd (calls layout fn)

let verified_function_count layout =
  List.length (compiled layout).Rustlite.Pipeline.function_names

let layer_count = List.length Mem_spec.layer_names

let stratification_ok layout = Layer.check_stratified (stack layout)

let warm layout =
  (* populate every unguarded layout-keyed memo table from a single
     domain; the tables are plain Hashtbls, so the first insertion must
     not race with reads from worker domains *)
  ignore (compiled layout);
  ignore (digests layout);
  ignore (stack layout);
  ignore (Boot.booted layout)
