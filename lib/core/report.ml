type failure = { case : string; reason : string }

(* Failures accumulate newest-first so [add_failure] and [merge] stay
   O(1)/O(n); the original order is restored at the observation points
   ([failures], [pp]).  Sharded verification passes merge thousands of
   per-obligation reports — a [@ [x]] tail-append would be quadratic. *)
type t = {
  name : string;
  total : int;
  passed : int;
  skipped : int;
  failures_rev : failure list;
}

let empty name = { name; total = 0; passed = 0; skipped = 0; failures_rev = [] }
let ok r = r.failures_rev = []
let add_pass r = { r with total = r.total + 1; passed = r.passed + 1 }
let add_skip r = { r with total = r.total + 1; skipped = r.skipped + 1 }

let add_failure r ~case ~reason =
  { r with total = r.total + 1; failures_rev = { case; reason } :: r.failures_rev }

let failures r = List.rev r.failures_rev
let failure_count r = List.length r.failures_rev

let merge name rs =
  List.fold_left
    (fun acc r ->
      {
        acc with
        total = acc.total + r.total;
        passed = acc.passed + r.passed;
        skipped = acc.skipped + r.skipped;
        (* prepending the later report's reversed failures keeps the
           merged order = concatenation in [rs] order once re-reversed *)
        failures_rev = r.failures_rev @ acc.failures_rev;
      })
    (empty name) rs

let merge_by_name rs =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.name with
      | None ->
          order := r.name :: !order;
          Hashtbl.add tbl r.name [ r ]
      | Some group -> Hashtbl.replace tbl r.name (r :: group))
    rs;
  List.rev_map
    (fun name -> merge name (List.rev (Hashtbl.find tbl name)))
    !order

let pp fmt r =
  let nfail = failure_count r in
  Format.fprintf fmt "%-40s %5d cases, %5d passed, %4d skipped, %3d failed"
    r.name r.total r.passed r.skipped nfail;
  List.iteri
    (fun i f ->
      if i < 5 then Format.fprintf fmt "@,    FAIL [%s]: %s" f.case f.reason)
    (failures r);
  if nfail > 5 then
    Format.fprintf fmt "@,    ... and %d more failures" (nfail - 5)

let to_string r = Format.asprintf "@[<v>%a@]" pp r
