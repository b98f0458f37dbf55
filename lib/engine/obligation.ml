type outcome = {
  reports : Mirverif.Report.t list;
  log : string;
  findings : (string * Analysis.Lint.finding) list;
}

type t = {
  id : string;
  phase : string;
  deps : string list;
  fingerprint : string;
  run : unit -> outcome;
  fallback : (unit -> outcome) option;
  on_outcome : (outcome -> unit) option;
}

let v ~id ~phase ?(deps = []) ~fingerprint ?fallback ?on_outcome run =
  { id; phase; deps; fingerprint; run; fallback; on_outcome }

let outcome ?(log = "") ?(findings = []) reports = { reports; log; findings }

let failure_count o =
  List.fold_left (fun n r -> n + Mirverif.Report.failure_count r) 0 o.reports

let case_totals os =
  List.fold_left
    (fun (t, p, s, f) o ->
      List.fold_left
        (fun (t, p, s, f) (r : Mirverif.Report.t) ->
          ( t + r.Mirverif.Report.total,
            p + r.Mirverif.Report.passed,
            s + r.Mirverif.Report.skipped,
            f + Mirverif.Report.failure_count r ))
        (t, p, s, f) o.reports)
    (0, 0, 0, 0) os
