module Report = Mirverif.Report

(* Case labels are rendered only for failures. *)
let case_of label action =
  Printf.sprintf "%s / %s" label (Transition.action_to_string action)

let check_integrity ~observer ~states ~actions =
  let name = Printf.sprintf "NI 5.2 integrity vs %s" (Principal.to_string observer) in
  List.fold_left
    (fun report (label, st) ->
      if Principal.equal st.State.active observer then Report.add_skip report
      else
        let obs = lazy (Observation.observe st observer) in
        List.fold_left
          (fun report action ->
            if Transition.configures st observer action then
              (* lifecycle actions legitimately reshape the observer's
                 view; the pairwise lemma covers them *)
              Report.add_skip report
            else
            match Transition.step st action with
            | Error _ -> Report.add_skip report
            | Ok st' -> (
                match
                  Observation.unchanged_after observer
                    ~before:(st, Lazy.force obs) st'
                with
                | Ok true -> Report.add_pass report
                | Ok false ->
                    Report.add_failure report ~case:(case_of label action)
                      ~reason:"another principal's step changed the observer's view"
                | Error msg ->
                    let case = case_of label action in
                    Report.add_failure report ~case
                      ~reason:(Printf.sprintf "%s: observation failed: %s" case msg)))
          report actions)
    (Report.empty name) states

let consistency ~name ~observer ~pairs ~actions ~wants_active =
  List.fold_left
    (fun report (label, st1, st2) ->
      let applicable =
        Principal.equal st1.State.active st2.State.active
        && Bool.equal (Principal.equal st1.State.active observer) wants_active
      in
      if not applicable then Report.add_skip report
      else
        match Observation.indistinguishable observer st1 st2 with
        | Error _ -> Report.add_skip report
        | Ok false -> Report.add_skip report (* outside the lemma's hypothesis *)
        | Ok true ->
            List.fold_left
              (fun report action ->
                match (Transition.step st1 action, Transition.step st2 action) with
                | Error _, Error _ -> Report.add_skip report
                | Ok st1', Ok st2' -> (
                    match
                      Observation.indistinguishable_after observer
                        ~before:(st1, st2) st1' st2'
                    with
                    | Ok true -> Report.add_pass report
                    | Ok false ->
                        Report.add_failure report ~case:(case_of label action)
                          ~reason:"post-states distinguishable to the observer"
                    | Error reason ->
                        Report.add_failure report ~case:(case_of label action) ~reason)
                | Ok _, Error e | Error e, Ok _ ->
                    if wants_active then
                      (* the active observer can see a fault directly *)
                      Report.add_failure report ~case:(case_of label action)
                        ~reason:
                          (Printf.sprintf
                             "enabledness differs between indistinguishable states \
                              (%s)" e)
                    else Report.add_skip report)
              report actions)
    (Report.empty name) pairs

let check_local_consistency ~observer ~pairs ~actions =
  consistency
    ~name:(Printf.sprintf "NI 5.3 confidentiality vs %s" (Principal.to_string observer))
    ~observer ~pairs ~actions ~wants_active:true

let check_inactive_consistency ~observer ~pairs ~actions =
  consistency
    ~name:(Printf.sprintf "NI 5.4 inactive consistency vs %s" (Principal.to_string observer))
    ~observer ~pairs ~actions ~wants_active:false

let check_trace ~observer ~pairs ~schedules =
  let name =
    Printf.sprintf "NI 5.1 trace indistinguishability vs %s"
      (Principal.to_string observer)
  in
  List.fold_left
    (fun report (label, st1, st2) ->
      match Observation.indistinguishable observer st1 st2 with
      | Error _ | Ok false -> Report.add_skip report
      | Ok true ->
          List.fold_left
            (fun report schedule ->
              let rec go report i st1 st2 = function
                | [] -> Report.add_pass report
                | action :: rest -> (
                    let case () =
                      Printf.sprintf "%s / step %d: %s" label i
                        (Transition.action_to_string action)
                    in
                    match (Transition.step st1 action, Transition.step st2 action) with
                    | Error _, Error _ -> go report i st1 st2 rest
                    | Ok st1', Ok st2' -> (
                        match
                          Observation.indistinguishable_after observer
                            ~before:(st1, st2) st1' st2'
                        with
                        | Ok true -> go report (i + 1) st1' st2' rest
                        | Ok false ->
                            Report.add_failure report ~case:(case ())
                              ~reason:"distinguishable mid-trace"
                        | Error reason ->
                            Report.add_failure report ~case:(case ()) ~reason)
                    | Ok _, Error e | Error e, Ok _ ->
                        if Principal.equal st1.State.active observer then
                          Report.add_failure report ~case:(case ())
                            ~reason:
                              (Printf.sprintf
                                 "enabledness diverged while the observer runs (%s)" e)
                        else
                          (* schedules genuinely fork: stop this trace *)
                          Report.add_pass report)
              in
              go report 0 st1 st2 schedule)
            report schedules)
    (Report.empty name) pairs

let check_all ~observers ~states ~pairs ~actions =
  List.concat_map
    (fun observer ->
      [
        check_integrity ~observer ~states ~actions;
        check_local_consistency ~observer ~pairs ~actions;
        check_inactive_consistency ~observer ~pairs ~actions;
      ])
    observers
