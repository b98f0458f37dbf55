type 'abs case = {
  label : unit -> string;
  abs : 'abs;
  args : 'abs Mir.Value.t list;
  spec_args : 'abs Mir.Value.t list option;
  mem : 'abs Mir.Mem.t;
}

let case ?label ?spec_args ?(mem = Mir.Mem.empty) abs args =
  let label =
    match label with
    | Some l -> l
    | None ->
        fun () ->
          Format.asprintf "(%a)"
            (Format.pp_print_list
               ~pp_sep:(fun f () -> Format.fprintf f ", ")
               Mir.Value.pp)
            args
  in
  { label; abs; args; spec_args; mem }

type 'abs equiv = {
  abs_eq : 'abs -> 'abs -> bool;
  ret_eq : 'abs Mir.Value.t -> 'abs Mir.Value.t -> bool;
}

let equiv ?(ret_eq = Mir.Value.equal) abs_eq = { abs_eq; ret_eq }

type 'abs check = {
  fn : string;
  spec : 'abs Spec.t;
  cases : 'abs case Seq.t;
  eq : 'abs equiv;
  fuel : int;
}

let check ?(fuel = 1_000_000) ~fn ~spec ~eq cases = { fn; spec; cases; eq; fuel }

(* One case battery, parameterized over the executor.  The fold is the
   checker's unit of progress, so each case starts with a cooperative
   {!Cancel.poll} — the boundary where a supervising harness can cancel
   an obligation that has outrun its deadline.  A case's label is
   rendered only when the case fails. *)
let run_battery ~call c =
  Seq.fold_left
    (fun report cs ->
      Cancel.poll ();
      let spec_args = Option.value ~default:cs.args cs.spec_args in
      match Spec.apply c.spec cs.abs spec_args with
      | Error _ ->
          (* Spec undefined: outside the precondition, nothing claimed. *)
          Report.add_skip report
      | Ok (abs_spec, ret_spec) -> (
          match call ~abs:cs.abs ~mem:cs.mem c.fn cs.args with
          | Error e ->
              Report.add_failure report ~case:(cs.label ())
                ~reason:
                  (Printf.sprintf "code faulted where spec is defined: %s"
                     (Mir.Interp.error_to_string e))
          | Ok outcome ->
              if not (c.eq.ret_eq outcome.Mir.Interp.ret ret_spec) then
                Report.add_failure report ~case:(cs.label ())
                  ~reason:
                    (Printf.sprintf "return mismatch: code %s, spec %s"
                       (Mir.Value.to_string outcome.Mir.Interp.ret)
                       (Mir.Value.to_string ret_spec))
              else if not (c.eq.abs_eq outcome.Mir.Interp.abs abs_spec) then
                Report.add_failure report ~case:(cs.label ())
                  ~reason:"abstract-state effect differs from specification"
              else Report.add_pass report))
    (Report.empty (Printf.sprintf "refine %s" c.fn))
    c.cases

(* The hot path runs against the closure-compiled executor: the check
   is compiled once and then executed for every generated case.
   [Mir.Compile.call] is observationally identical to [Mir.Interp.call]
   (same outcomes, same error classification — pinned by the
   differential suite), so reports are unchanged. *)
let run_compiled cenv c =
  run_battery
    ~call:(fun ~abs ~mem fn args -> Mir.Compile.call ~fuel:c.fuel cenv ~abs ~mem fn args)
    c

(* The degraded path: the same battery under the reference small-step
   interpreter.  The engine's supervisor falls back to this when the
   compiled executor crashes — slower, but with the smaller trusted
   base of the reference semantics. *)
let run_interp env c =
  run_battery
    ~call:(fun ~abs ~mem fn args -> Mir.Interp.call ~fuel:c.fuel env ~abs ~mem fn args)
    c

let run ?ccache env c = run_compiled (Mir.Compile.compile ?cache:ccache env) c
let run_all env cs = List.map (run env) cs

type ('lo, 'hi) simulation = {
  sim_name : string;
  lo : 'lo Spec.t;
  hi : 'hi Spec.t;
  relate : 'lo -> 'hi -> bool;
  ret_rel : 'lo Mir.Value.t -> 'hi Mir.Value.t -> bool;
}

let simulate sim ~cases =
  List.fold_left
    (fun report (label, lo_abs, hi_abs, args) ->
      if not (sim.relate lo_abs hi_abs) then
        Report.add_failure report ~case:label ~reason:"initial states not R-related"
      else
        (* Arguments are plain data (no trusted pointers), so the same
           list can be retagged for both abstract-state types. *)
        let hi_args_r =
          List.fold_right
            (fun a acc ->
              match (Mir.Value.retag a, acc) with
              | Ok a', Ok rest -> Ok (a' :: rest)
              | Error e, _ -> Error e
              | _, (Error _ as e) -> e)
            args (Ok [])
        in
        match hi_args_r with
        | Error msg ->
            Report.add_failure report ~case:label
              ~reason:(Printf.sprintf "arguments not transferable: %s" msg)
        | Ok hi_args -> (
            match Spec.apply sim.hi hi_abs hi_args with
            | Error _ -> Report.add_skip report
            | Ok (hi_abs', hi_ret) -> (
                match Spec.apply sim.lo lo_abs args with
                | Error msg ->
                    Report.add_failure report ~case:label
                      ~reason:
                        (Printf.sprintf "low spec undefined where high is defined: %s" msg)
                | Ok (lo_abs', lo_ret) ->
                    if not (sim.ret_rel lo_ret hi_ret) then
                      Report.add_failure report ~case:label
                        ~reason:
                          (Printf.sprintf "return values unrelated: low %s, high %s"
                             (Mir.Value.to_string lo_ret)
                             (Mir.Value.to_string hi_ret))
                    else if not (sim.relate lo_abs' hi_abs') then
                      Report.add_failure report ~case:label
                        ~reason:"final states not R-related"
                    else Report.add_pass report)))
    (Report.empty (Printf.sprintf "simulate %s" sim.sim_name))
    cases
