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
   so bodies reused across layers compile once.  Guarded by a mutex:
   [warm] fills the table from a single domain before the pool starts,
   but chaos batteries and tests may also compile lazily. *)
let compile_memo : Absdata.t Mir.Compile.cache = Mir.Compile.cache ()

let cenv_mutex = Mutex.create ()

let cenv_cache : (Layout.t * string, Absdata.t Mir.Compile.t) Hashtbl.t =
  Hashtbl.create 32

let compiled_for layout ~layer =
  Mutex.lock cenv_mutex;
  match Hashtbl.find_opt cenv_cache (layout, layer) with
  | Some ct ->
      Mutex.unlock cenv_mutex;
      ct
  | None ->
      let ct =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock cenv_mutex)
          (fun () ->
            let ct = Mir.Compile.compile ~cache:compile_memo (env_for layout ~layer) in
            Hashtbl.add cenv_cache (layout, layer) ct;
            ct)
      in
      ct

let layer_of_function layout name =
  List.find_opt
    (fun (t : Mem_spec.t) -> String.equal t.Mem_spec.spec.Mirverif.Spec.name name)
    (Mem_spec.all layout)
  |> Option.map (fun (t : Mem_spec.t) -> t.Mem_spec.layer)

let functions_of_layer layout layer =
  List.filter_map
    (fun (t : Mem_spec.t) ->
      if String.equal t.Mem_spec.layer layer then
        Some t.Mem_spec.spec.Mirverif.Spec.name
      else None)
    (Mem_spec.all layout)

let verified_function_count layout =
  List.length (compiled layout).Rustlite.Pipeline.function_names

let layer_count = List.length Mem_spec.layer_names

let stratification_ok layout = Layer.check_stratified (stack layout)

let warm layout =
  (* populate every layout-keyed memo table from a single domain; the
     tables are plain Hashtbls, so the first insertion must not race
     with reads from worker domains *)
  ignore (compiled layout);
  ignore (digests layout);
  ignore (stack layout);
  ignore (Boot.booted layout);
  (* pre-compile every layer's closure form so worker domains only
     read the compiled-env table *)
  List.iter (fun layer -> ignore (compiled_for layout ~layer)) Mem_spec.layer_names
