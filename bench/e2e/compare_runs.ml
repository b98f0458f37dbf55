(* e2e.exe compare A.json B.json: A is the parent, B the change, both
   results files of [e2e.exe run --repeat N] (run i of A and run i of B
   form pair i).  One row per workload and metric, labelled:

   - improved: at least 10 pairs, B better in at least 9/10 of them
     (ties count for neither), and the medians apart by more than A's
     interquartile range;
   - regressed: B's median worse than A's by more than the metric's
     bound from BENCHMARK.json (failed_ratio: by anything at all);
   - unresolved: neither, and fewer than 10 pairs, or a side's spread
     (IQR / median) wider than the bound unless every B run beats every
     A run;
   - unchanged: otherwise. *)

let min_pairs = 10

module Jsonx = Engine.Jsonx

let parse_file path =
  match Jsonx.parse (Proc.read_file path) with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let list key j = Option.value ~default:[] (Option.bind (Jsonx.member key j) Jsonx.to_list_opt)

type rule = { bound : float; lower : bool; absolute : bool }

(* metric name -> rule.  Three metrics are not in BENCHMARK.json (see
   e2e.ml): failed_ratio (it may be 0) may not rise at all, and
   verdict_tail_s and cpu_per_verdict_s are held to the largest bound
   allowed there, 0.25, so a noisy one reads unresolved. *)
let rules benchmark =
  ("failed_ratio", { bound = 0.0; lower = true; absolute = true })
  :: ("verdict_tail_s", { bound = 0.25; lower = true; absolute = false })
  :: ("cpu_per_verdict_s", { bound = 0.25; lower = true; absolute = false })
  :: List.filter_map
       (fun m ->
         Option.map
           (fun name ->
             ( name,
               {
                 bound = Jout.number (Jsonx.member "bound" m);
                 lower = Jsonx.member "better" m <> Some (Jsonx.Str "higher");
                 absolute = false;
               } ))
           (Option.bind (Jsonx.member "name" m) Jsonx.to_string_opt))
       (list "end_to_end" benchmark)

(* (workload, [(metric, value)]) per run, in run order *)
let runs results =
  List.filter_map
    (fun run ->
      match
        (Option.bind (Jsonx.member "workload" run) Jsonx.to_string_opt, Jsonx.member "metrics" run)
      with
      | Some w, Some (Jsonx.Obj ms) ->
          Some (w, List.map (fun (k, m) -> (k, Jout.number (Jsonx.member "value" m))) ms)
      | _ -> None)
    (list "runs" results)

let series runs w k =
  List.filter_map (fun (w', ms) -> if String.equal w w' then List.assoc_opt k ms else None) runs

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let label rule a b =
  let better x y = if rule.lower then x < y else x > y in
  let q1a, ma, q3a = Stats.quartiles a and q1b, mb, q3b = Stats.quartiles b in
  let pairs = min (List.length a) (List.length b) in
  let wins = List.length (List.filter Fun.id (List.map2 better (take pairs b) (take pairs a))) in
  let gap = if rule.absolute || ma = 0.0 then mb -. ma else (mb -. ma) /. Float.abs ma in
  let spread q1 m q3 = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
  let verdict =
    if
      pairs >= min_pairs
      && float_of_int wins >= 0.9 *. float_of_int pairs
      && better mb ma
      && Float.abs (mb -. ma) > q3a -. q1a
    then "improved"
    else if (if rule.lower then gap else -.gap) > rule.bound then "regressed"
    else if
      pairs < min_pairs
      || Float.max (spread q1a ma q3a) (spread q1b mb q3b) > rule.bound
         && not (List.for_all (fun y -> List.for_all (better y) a) b)
    then "unresolved"
    else "unchanged"
  in
  ((q1a, ma, q3a), (q1b, mb, q3b), wins, pairs, verdict)

(* Prints the table; 1 when any row regressed. *)
let run ~benchmark a_path b_path =
  let rules = rules (parse_file benchmark) in
  let a = runs (parse_file a_path) and b = runs (parse_file b_path) in
  let per_workload runs =
    List.fold_left
      (fun acc (w, _) -> max acc (List.length (List.filter (fun (w', _) -> w' = w) runs)))
      0 runs
  in
  Printf.printf "A: %s (%d runs per workload)\nB: %s (%d runs per workload)\n" a_path
    (per_workload a) b_path (per_workload b);
  if min (per_workload a) (per_workload b) < min_pairs then
    Printf.printf
      "fewer than %d pairs: no row can read improved or unchanged, only regressed or \
       unresolved\n"
      min_pairs;
  Printf.printf "%-16s %-18s %-34s %-34s %8s %7s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "wins" "label";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun (k, rule) ->
          let xs = series a w k and ys = series b w k in
          if xs <> [] && ys <> [] then begin
            let (q1a, ma, q3a), (q1b, mb, q3b), wins, pairs, verdict = label rule xs ys in
            if verdict = "regressed" then regressed := true;
            let cell q1 m q3 = Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3 in
            Printf.printf "%-16s %-18s %-34s %-34s %+7.1f%% %3d/%-3d  %s\n" w k
              (cell q1a ma q3a) (cell q1b mb q3b)
              (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
              wins pairs verdict
          end)
        rules)
    (List.sort_uniq String.compare (List.map fst a));
  if !regressed then 1 else 0
