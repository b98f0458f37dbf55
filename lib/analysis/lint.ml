type kind =
  | Encapsulation
  | Move_init
  | Unchecked_arith
  | Unreachable_block
  | Conflicting_borrow
  | Dangling_handle
  | Move_while_borrowed
  | Interval_bounds
  | Secret_flow
  | Alias_footprint

(* The per-body dataflow lints (what {!Pass} runs over one function's
   MIR at a time). *)
let all = [ Encapsulation; Move_init; Unchecked_arith; Unreachable_block ]

(* The NLL-style borrow-checker lints: per body like [all], but the
   engine schedules them as their own phase so the analysis-phase
   obligation counts and fingerprints are untouched by selection. *)
let borrow = [ Conflicting_borrow; Dangling_handle; Move_while_borrowed ]

(* The whole-program abstract-interpretation lints: their verdicts
   depend on callees, so the engine schedules them per call-graph SCC
   rather than per body. *)
let interprocedural = [ Interval_bounds; Secret_flow ]

(* The interprocedural points-to lint (one obligation per SCC, like
   [interprocedural], but over Andersen footprint summaries). *)
let alias = [ Alias_footprint ]
let catalogue = all @ borrow @ interprocedural @ alias

let to_string = function
  | Encapsulation -> "layer-encapsulation"
  | Move_init -> "move-init"
  | Unchecked_arith -> "unchecked-arith"
  | Unreachable_block -> "unreachable-block"
  | Conflicting_borrow -> "conflicting-borrow"
  | Dangling_handle -> "dangling-handle"
  | Move_while_borrowed -> "move-while-borrowed"
  | Interval_bounds -> "interval-bounds"
  | Secret_flow -> "secret-flow"
  | Alias_footprint -> "alias-footprint"

let of_string s =
  match List.find_opt (fun k -> String.equal (to_string k) s) catalogue with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown lint %S (known: %s)" s
           (String.concat ", " (List.map to_string catalogue)))

(* Group selectors accepted alongside individual lint names: a
   selection like "borrow,alias" picks whole engine phases without
   spelling out every kind. *)
let groups =
  [ ("all", catalogue); ("body", all); ("borrow", borrow);
    ("interprocedural", interprocedural); ("alias", alias) ]

let kinds_of_string spec =
  let rec go acc = function
    | [] ->
        (* canonical order, duplicates collapsed: the list is part of
           obligation fingerprints, so equal selections must render
           identically *)
        Ok (List.filter (fun k -> List.mem k acc) catalogue)
    | part :: rest -> (
        let part = String.trim part in
        match List.assoc_opt part groups with
        | Some ks -> go (List.rev_append ks acc) rest
        | None -> (
            match of_string part with
            | Ok k -> go (k :: acc) rest
            | Error e ->
                Error
                  (Printf.sprintf "%s; group selectors: %s" e
                     (String.concat ", " (List.map fst groups)))))
  in
  go [] (String.split_on_char ',' spec)

type severity = Error | Info

type finding = {
  kind : kind;
  where : string;
  detail : string;
  severity : severity;
  discharged_by : string option;
}

let v ?(severity = Error) ?discharged_by kind ~where detail =
  { kind; where; detail; severity; discharged_by }

let discharges cert f =
  (* An [Info] certificate cancels the [Error] twin it names: same
     kind, same site. *)
  cert.severity = Info
  && cert.discharged_by <> None
  && f.severity = Error
  && cert.kind = f.kind
  && String.equal cert.where f.where

let reconcile findings =
  let certs = List.filter (fun f -> f.discharged_by <> None) findings in
  List.filter
    (fun f -> not (List.exists (fun c -> discharges c f) certs))
    findings

let finding_to_string f =
  let note =
    match (f.severity, f.discharged_by) with
    | Info, Some by -> Printf.sprintf " (discharged by %s)" by
    | Info, None -> " (info)"
    | Error, _ -> ""
  in
  Printf.sprintf "%s: [%s] %s%s" f.where (to_string f.kind) f.detail note

(* Stable presentation order: lint catalogue order first, then program
   position.  [where] strings are "bbN" / "bbN[M]" so a string compare
   is not positional; keep the input order within a kind (every scan
   already emits in block/statement order). *)
let sort findings =
  let rank k =
    let rec go i = function
      | [] -> i
      | k' :: rest -> if k' = k then i else go (i + 1) rest
    in
    go 0 catalogue
  in
  List.stable_sort (fun a b -> compare (rank a.kind) (rank b.kind)) findings
