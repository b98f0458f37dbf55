(* Tests for lib/analysis: the CFG/dataflow framework, one negative
   fixture per lint (each must fire), positive controls (clean bodies
   stay clean), lint selection, and the zero-findings gate over the
   seed 15-layer stack. *)

module Syn = Mir.Syntax
module B = Mir.Builder
module Lint = Analysis.Lint
module Pass = Analysis.Pass

let u64 = Mir.Ty.Int Mir.Ty.U64

let kinds_of findings = List.map (fun (f : Lint.finding) -> f.Lint.kind) findings

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let analyze ?fn_layer ?(accessor = fun ~owner:_ ~callee:_ -> false)
    ?(lints = Lint.all) body =
  Pass.analyze { Pass.fn_layer; accessor; lints } body

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

(* bb0 reads a never-written temporary. *)
let fix_uninit () =
  let b = B.create ~name:"fix_uninit" ~params:[] ~ret_ty:u64 in
  let t = B.temp b u64 in
  B.assign_var b Syn.return_var (Syn.Use (B.copy t));
  B.terminate b Syn.Return;
  B.finish b

(* t is moved into u, then read again. *)
let fix_use_after_move () =
  let b = B.create ~name:"fix_moved" ~params:[] ~ret_ty:u64 in
  let t = B.temp b u64 in
  let u = B.temp b u64 in
  B.assign_var b t (Syn.Use (B.cu64 7));
  B.assign_var b u (Syn.Use (B.move t));
  B.assign_var b Syn.return_var (Syn.Use (B.copy t));
  B.terminate b Syn.Return;
  B.finish b

(* A handle of layer "FrameAlloc" is dereferenced in foreign code. *)
let fix_handle_deref () =
  let b = B.create ~name:"fix_deref" ~params:[] ~ret_ty:u64 in
  let h = B.temp b (Mir.Ty.Ref (Mir.Ty.Opaque "FrameAlloc")) in
  B.assign_var b Syn.return_var (Syn.Use (B.copy_place (B.pderef (B.pvar h))));
  B.terminate b Syn.Return;
  B.finish b

(* A handle is passed whole to some callee; whether that is a finding
   depends on the accessor relation, which the tests vary. *)
let fix_handle_passed () =
  let b = B.create ~name:"fix_passed" ~params:[] ~ret_ty:Mir.Ty.Unit in
  let h = B.temp b (Mir.Ty.Ref (Mir.Ty.Opaque "FrameAlloc")) in
  let ret = B.fresh_block b in
  B.terminate b
    (Syn.Call
       {
         dest = B.pvar Syn.return_var;
         func = "leak_handle";
         args = [ B.copy h ];
         target = Some ret;
       });
  B.switch_to b ret;
  B.terminate b Syn.Return;
  B.finish b

(* Raw add in a body that elsewhere uses checked adds. *)
let fix_unchecked_add () =
  let b = B.create ~name:"fix_add" ~params:[] ~ret_ty:u64 in
  let x = B.temp b u64 in
  let y = B.temp b u64 in
  let pair = B.temp b (Mir.Ty.Tuple [ u64; Mir.Ty.Bool ]) in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b y (Syn.Use (B.cu64 2));
  B.assign_var b pair (Syn.Checked_binary (Syn.Add, B.copy x, B.copy y));
  B.assign_var b Syn.return_var (Syn.Binary (Syn.Add, B.copy x, B.copy y));
  B.terminate b Syn.Return;
  B.finish b

(* Same raw add, but nothing checked anywhere: the unchecked
   compilation profile, exempt by design. *)
let fix_raw_add_only () =
  let b = B.create ~name:"fix_raw" ~params:[] ~ret_ty:u64 in
  let x = B.temp b u64 in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b Syn.return_var (Syn.Binary (Syn.Add, B.copy x, B.cu64 2));
  B.terminate b Syn.Return;
  B.finish b

(* bb1 holds a real statement but nothing jumps to it; bb2 is an empty
   lowering artifact and must not be flagged. *)
let fix_unreachable ~artifact_only () =
  let b = B.create ~name:"fix_unreach" ~params:[] ~ret_ty:u64 in
  B.assign_var b Syn.return_var (Syn.Use (B.cu64 0));
  B.terminate b Syn.Return;
  let dead = B.fresh_block b in
  B.switch_to b dead;
  if not artifact_only then
    B.assign_var b Syn.return_var (Syn.Use (B.cu64 9));
  B.terminate b (Syn.Goto 0);
  B.finish b

let clean_body () =
  let b = B.create ~name:"clean" ~params:[ ("x", u64, Syn.Klocal) ] ~ret_ty:u64 in
  let t = B.temp b u64 in
  B.assign_var b t (Syn.Binary (Syn.Add, B.copy "x", B.cu64 1));
  B.assign_var b Syn.return_var (Syn.Use (B.copy t));
  B.terminate b Syn.Return;
  B.finish b

(* ------------------------------------------------------------------ *)
(* Framework                                                           *)

let test_cfg_diamond () =
  let b = B.create ~name:"diamond" ~params:[ ("c", Mir.Ty.Bool, Syn.Klocal) ] ~ret_ty:u64 in
  let bl = B.fresh_block b in
  let br = B.fresh_block b in
  let bj = B.fresh_block b in
  B.terminate b (Syn.Switch_int (B.copy "c", [ (0L, bl) ], br));
  B.switch_to b bl;
  B.assign_var b Syn.return_var (Syn.Use (B.cu64 0));
  B.terminate b (Syn.Goto bj);
  B.switch_to b br;
  B.assign_var b Syn.return_var (Syn.Use (B.cu64 1));
  B.terminate b (Syn.Goto bj);
  B.switch_to b bj;
  B.terminate b Syn.Return;
  let body = B.finish b in
  let succs = Analysis.Cfg.block_successors body in
  Alcotest.(check (list int)) "bb0 succs" [ bl; br ] succs.(0);
  Alcotest.(check (list int)) "join succs" [] succs.(bj);
  let preds = Analysis.Cfg.predecessors body in
  Alcotest.(check (list int)) "join preds" [ bl; br ] (List.sort compare preds.(bj));
  let reach = Analysis.Cfg.reachable body in
  Alcotest.(check bool) "all reachable" true (Array.for_all Fun.id reach)

(* Liveness — the canonical backward analysis — on a two-block body,
   exercising the Backward direction of the solver. *)
let test_backward_liveness () =
  let b = B.create ~name:"live" ~params:[ ("x", u64, Syn.Klocal) ] ~ret_ty:u64 in
  let b1 = B.fresh_block b in
  B.assign_var b Syn.return_var (Syn.Binary (Syn.Add, B.copy "x", B.cu64 1));
  B.terminate b (Syn.Goto b1);
  B.switch_to b b1;
  B.terminate b Syn.Return;
  let body = B.finish b in
  let module SS = Set.Make (String) in
  let module Solver = Analysis.Dataflow.Make (struct
    type t = SS.t

    let equal = SS.equal
    let join = SS.union
  end) in
  let transfer i live_out =
    match i with
    | 0 -> SS.add "x" (SS.remove Syn.return_var live_out)
    | _ -> SS.add Syn.return_var live_out (* Return reads _0 *)
  in
  let r =
    Solver.solve ~direction:Analysis.Dataflow.Backward ~init:SS.empty
      ~bottom:SS.empty ~transfer body
  in
  Alcotest.(check bool) "x live into bb0" true (SS.mem "x" r.Solver.after.(0));
  Alcotest.(check bool) "_0 dead into bb0" false
    (SS.mem Syn.return_var r.Solver.after.(0));
  Alcotest.(check bool) "_0 live into bb1" true
    (SS.mem Syn.return_var r.Solver.after.(1))

(* A loop must reach a fixpoint, not diverge: x initialized before the
   loop, used inside it. *)
let test_loop_fixpoint () =
  let b = B.create ~name:"loop" ~params:[ ("c", Mir.Ty.Bool, Syn.Klocal) ] ~ret_ty:u64 in
  let t = B.temp b u64 in
  let head = B.fresh_block b in
  let bbody = B.fresh_block b in
  let exit = B.fresh_block b in
  B.assign_var b t (Syn.Use (B.cu64 0));
  B.terminate b (Syn.Goto head);
  B.switch_to b head;
  B.terminate b (Syn.Switch_int (B.copy "c", [ (0L, exit) ], bbody));
  B.switch_to b bbody;
  B.assign_var b t (Syn.Binary (Syn.Add, B.copy t, B.cu64 1));
  B.terminate b (Syn.Goto head);
  B.switch_to b exit;
  B.assign_var b Syn.return_var (Syn.Use (B.copy t));
  B.terminate b Syn.Return;
  let body = B.finish b in
  Alcotest.(check (list pass)) "loop body is clean" [] (analyze body)

(* ------------------------------------------------------------------ *)
(* Lints: each fires on its fixture, stays quiet on the control        *)

let contains kind findings = List.mem kind (kinds_of findings)

let test_move_init_fires () =
  let fs = analyze (fix_uninit ()) in
  Alcotest.(check bool) "uninit fires" true (contains Lint.Move_init fs);
  let fs = analyze (fix_use_after_move ()) in
  Alcotest.(check bool) "use-after-move fires" true (contains Lint.Move_init fs);
  Alcotest.(check bool) "detail names the variable" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.kind = Lint.Move_init
         && String.length f.Lint.detail > 0
         && String.ends_with ~suffix:"_t0" f.Lint.detail)
       fs)

let test_encapsulation_fires () =
  let fs = analyze ~fn_layer:"PtMap" (fix_handle_deref ()) in
  Alcotest.(check bool) "foreign deref fires" true (contains Lint.Encapsulation fs);
  (* the same body inside the owning layer is fine *)
  let fs = analyze ~fn_layer:"FrameAlloc" (fix_handle_deref ()) in
  Alcotest.(check bool) "owner deref allowed" false (contains Lint.Encapsulation fs);
  (* passing the handle wholesale: flagged unless the callee is an
     accepted accessor of the owner *)
  let fs = analyze ~fn_layer:"PtMap" (fix_handle_passed ()) in
  Alcotest.(check bool) "handle passed fires" true (contains Lint.Encapsulation fs);
  let accessor ~owner ~callee =
    String.equal owner "FrameAlloc" && String.equal callee "leak_handle"
  in
  let fs = analyze ~fn_layer:"PtMap" ~accessor (fix_handle_passed ()) in
  Alcotest.(check bool) "accessor allowed" false (contains Lint.Encapsulation fs)

let test_unchecked_arith_fires () =
  let fs = analyze (fix_unchecked_add ()) in
  Alcotest.(check bool) "raw add fires" true (contains Lint.Unchecked_arith fs);
  let fs = analyze (fix_raw_add_only ()) in
  Alcotest.(check bool) "unchecked profile exempt" false
    (contains Lint.Unchecked_arith fs)

let test_unreachable_fires () =
  let fs = analyze (fix_unreachable ~artifact_only:false ()) in
  Alcotest.(check bool) "dead code fires" true (contains Lint.Unreachable_block fs);
  let fs = analyze (fix_unreachable ~artifact_only:true ()) in
  Alcotest.(check bool) "empty artifact block ignored" false
    (contains Lint.Unreachable_block fs)

let test_clean_body () =
  Alcotest.(check int) "clean body, no findings" 0 (List.length (analyze (clean_body ())))

(* ------------------------------------------------------------------ *)
(* Selection, suppression, reports                                     *)

let test_kinds_of_string () =
  (match Lint.kinds_of_string "all" with
  | Ok ks -> Alcotest.(check int) "all = catalogue" 10 (List.length ks)
  | Error e -> Alcotest.fail e);
  (match Lint.kinds_of_string "unchecked-arith, move-init" with
  | Ok ks ->
      Alcotest.(check (list string)) "canonical order"
        [ "move-init"; "unchecked-arith" ]
        (List.map Lint.to_string ks)
  | Error e -> Alcotest.fail e);
  (match Lint.kinds_of_string "move-init,move-init" with
  | Ok ks -> Alcotest.(check int) "deduplicated" 1 (List.length ks)
  | Error e -> Alcotest.fail e);
  match Lint.kinds_of_string "move-init,bogus" with
  | Ok _ -> Alcotest.fail "bogus lint accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the lint" true
        (String.length msg > 0)

let test_group_selectors () =
  (match Lint.kinds_of_string "borrow" with
  | Ok ks ->
      Alcotest.(check (list string)) "borrow group"
        [ "conflicting-borrow"; "dangling-handle"; "move-while-borrowed" ]
        (List.map Lint.to_string ks)
  | Error e -> Alcotest.fail e);
  (match Lint.kinds_of_string "alias" with
  | Ok ks ->
      Alcotest.(check (list string)) "alias group" [ "alias-footprint" ]
        (List.map Lint.to_string ks)
  | Error e -> Alcotest.fail e);
  (match Lint.kinds_of_string "borrow,alias,move-init" with
  | Ok ks -> Alcotest.(check int) "groups and names mix" 5 (List.length ks)
  | Error e -> Alcotest.fail e);
  (match Lint.kinds_of_string "body,all" with
  | Ok ks -> Alcotest.(check int) "overlapping groups dedup" 10 (List.length ks)
  | Error e -> Alcotest.fail e);
  match Lint.kinds_of_string "borrows" with
  | Ok _ -> Alcotest.fail "near-miss group accepted"
  | Error msg ->
      Alcotest.(check bool) "error lists the group selectors" true
        (has_substring msg "group selectors")

let test_suppression () =
  let body = fix_uninit () in
  Alcotest.(check bool) "fires with full catalogue" true
    (contains Lint.Move_init (analyze body));
  let lints = List.filter (fun k -> k <> Lint.Move_init) Lint.all in
  Alcotest.(check int) "suppressed when deselected" 0
    (List.length (analyze ~lints body))

let test_report_shape () =
  let r = Pass.check Pass.default_config ~name:"clean" (clean_body ()) in
  Alcotest.(check bool) "clean report ok" true (Mirverif.Report.ok r);
  Alcotest.(check int) "one case per lint" (List.length Lint.all)
    r.Mirverif.Report.total;
  let r = Pass.check Pass.default_config ~name:"dirty" (fix_uninit ()) in
  Alcotest.(check bool) "dirty report fails" false (Mirverif.Report.ok r)

(* ------------------------------------------------------------------ *)
(* Borrow checking: loans, regions, the three borrow lints             *)

let uref = Mir.Ty.Ref u64

(* Two mutable borrows of x, both alive across the second creation. *)
let fix_conflicting_borrow () =
  let b = B.create ~name:"fix_conflict" ~params:[] ~ret_ty:u64 in
  let x = B.local b ~name:"x" u64 in
  let p = B.temp b uref in
  let q = B.temp b uref in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b p (Syn.Address_of (B.pvar x));
  B.assign_var b q (Syn.Address_of (B.pvar x));
  B.assign_var b Syn.return_var
    (Syn.Binary
       ( Syn.Add,
         B.copy_place (B.pderef (B.pvar p)),
         B.copy_place (B.pderef (B.pvar q)) ));
  B.terminate b Syn.Return;
  B.finish b

(* Same shape with shared borrows: reading through two shared refs is
   fine. *)
let fix_shared_borrows () =
  let b = B.create ~name:"fix_shared" ~params:[] ~ret_ty:u64 in
  let x = B.local b ~name:"x" u64 in
  let p = B.temp b uref in
  let q = B.temp b uref in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b p (Syn.Ref (B.pvar x));
  B.assign_var b q (Syn.Ref (B.pvar x));
  B.assign_var b Syn.return_var
    (Syn.Binary
       ( Syn.Add,
         B.copy_place (B.pderef (B.pvar p)),
         B.copy_place (B.pderef (B.pvar q)) ));
  B.terminate b Syn.Return;
  B.finish b

(* The planted "dangling EPCM borrow": a handle borrows an EPCM entry
   local, the local's storage dies, the handle is read afterwards. *)
let fix_dangling_epcm () =
  let b = B.create ~name:"fix_dangling" ~params:[] ~ret_ty:u64 in
  let e = B.local b ~name:"epcm_entry" u64 in
  let h = B.temp b uref in
  B.assign_var b e (Syn.Use (B.cu64 0));
  B.assign_var b h (Syn.Ref (B.pvar e));
  B.push b (Syn.Storage_dead e);
  B.assign_var b Syn.return_var (Syn.Use (B.copy_place (B.pderef (B.pvar h))));
  B.terminate b Syn.Return;
  B.finish b

(* Returning a reference to a local: the loan escapes its region. *)
let fix_escaping_ref () =
  let b = B.create ~name:"fix_escape" ~params:[] ~ret_ty:uref in
  let v = B.local b ~name:"v" u64 in
  B.assign_var b v (Syn.Use (B.cu64 3));
  B.assign_var b Syn.return_var (Syn.Ref (B.pvar v));
  B.terminate b Syn.Return;
  B.finish b

(* x is moved into y while a live loan still borrows it. *)
let fix_move_while_borrowed () =
  let b = B.create ~name:"fix_move_borrowed" ~params:[] ~ret_ty:u64 in
  let x = B.local b ~name:"x" u64 in
  let y = B.temp b u64 in
  let r = B.temp b uref in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b r (Syn.Ref (B.pvar x));
  B.assign_var b y (Syn.Use (B.move x));
  B.assign_var b Syn.return_var (Syn.Use (B.copy_place (B.pderef (B.pvar r))));
  B.terminate b Syn.Return;
  B.finish b

(* The last use of the first borrow precedes the second borrow: with
   liveness-based (NLL) regions the loans never overlap. *)
let fix_nll_disjoint () =
  let b = B.create ~name:"fix_nll" ~params:[] ~ret_ty:u64 in
  let x = B.local b ~name:"x" u64 in
  let p = B.temp b uref in
  let q = B.temp b uref in
  let t = B.temp b u64 in
  B.assign_var b x (Syn.Use (B.cu64 1));
  B.assign_var b p (Syn.Address_of (B.pvar x));
  B.assign_var b t (Syn.Use (B.copy_place (B.pderef (B.pvar p))));
  B.assign_var b q (Syn.Address_of (B.pvar x));
  B.assign_var b Syn.return_var
    (Syn.Binary (Syn.Add, B.copy t, B.copy_place (B.pderef (B.pvar q))));
  B.terminate b Syn.Return;
  B.finish b

let borrow_kinds body =
  List.map (fun (f : Lint.finding) -> f.Lint.kind) (Analysis.Borrow.check body)

let test_conflicting_borrow () =
  Alcotest.(check bool) "mut/mut overlap fires" true
    (List.mem Lint.Conflicting_borrow (borrow_kinds (fix_conflicting_borrow ())));
  Alcotest.(check bool) "shared/shared is clean" false
    (List.mem Lint.Conflicting_borrow (borrow_kinds (fix_shared_borrows ())));
  Alcotest.(check bool) "NLL-disjoint regions are clean" false
    (List.mem Lint.Conflicting_borrow (borrow_kinds (fix_nll_disjoint ())))

let test_dangling_handle () =
  Alcotest.(check bool) "storage-dead under live loan fires" true
    (List.mem Lint.Dangling_handle (borrow_kinds (fix_dangling_epcm ())));
  Alcotest.(check bool) "returned borrow of a local fires" true
    (List.mem Lint.Dangling_handle (borrow_kinds (fix_escaping_ref ())))

let test_move_while_borrowed () =
  Alcotest.(check bool) "move under live loan fires" true
    (List.mem Lint.Move_while_borrowed (borrow_kinds (fix_move_while_borrowed ())));
  Alcotest.(check bool) "clean body has no borrow findings"
    true
    (borrow_kinds (clean_body ()) = [])

let test_borrow_lint_report () =
  let report, findings, stats =
    Analysis.Borrow_lint.check ~name:"fix_dangling" (fix_dangling_epcm ())
  in
  Alcotest.(check bool) "report fails" false (Mirverif.Report.ok report);
  Alcotest.(check bool) "findings nonempty" true (findings <> []);
  Alcotest.(check bool) "loan sites counted" true (stats.Analysis.Borrow_lint.loans >= 1);
  (* selection: deselecting the kind silences it *)
  let _, fs, _ =
    Analysis.Borrow_lint.check
      ~lints:[ Lint.Conflicting_borrow ]
      ~name:"fix_dangling" (fix_dangling_epcm ())
  in
  Alcotest.(check int) "deselected kind suppressed" 0 (List.length fs)

(* ------------------------------------------------------------------ *)
(* Alias analysis: footprints and the aliased-frame lint                *)

module Alias = Analysis.Alias

(* writer(p, q) writes through both parameters. *)
let fix_writer () =
  let b =
    B.create ~name:"writer"
      ~params:[ ("p", uref, Syn.Klocal); ("q", uref, Syn.Klocal) ]
      ~ret_ty:Mir.Ty.Unit
  in
  B.assign b (B.pderef (B.pvar "p")) (Syn.Use (B.cu64 1));
  B.assign b (B.pderef (B.pvar "q")) (Syn.Use (B.cu64 2));
  B.terminate b Syn.Return;
  B.finish b

let call_writer b a1 a2 =
  let ret = B.fresh_block b in
  B.terminate b
    (Syn.Call
       {
         dest = B.pvar Syn.return_var;
         func = "writer";
         args = [ B.move a1; B.move a2 ];
         target = Some ret;
       });
  B.switch_to b ret;
  B.terminate b Syn.Return

(* caller_aliased passes two pointers to the SAME local — the planted
   aliased frame-handle leak. *)
let fix_caller_aliased () =
  let b = B.create ~name:"caller_aliased" ~params:[] ~ret_ty:Mir.Ty.Unit in
  let x = B.local b ~name:"x" u64 in
  let a = B.temp b uref in
  let c = B.temp b uref in
  B.assign_var b x (Syn.Use (B.cu64 0));
  B.assign_var b a (Syn.Address_of (B.pvar x));
  B.assign_var b c (Syn.Address_of (B.pvar x));
  call_writer b a c;
  B.finish b

(* caller_disjoint passes pointers to two different locals. *)
let fix_caller_disjoint () =
  let b = B.create ~name:"caller_disjoint" ~params:[] ~ret_ty:Mir.Ty.Unit in
  let x = B.local b ~name:"x" u64 in
  let y = B.local b ~name:"y" u64 in
  let a = B.temp b uref in
  let c = B.temp b uref in
  B.assign_var b x (Syn.Use (B.cu64 0));
  B.assign_var b y (Syn.Use (B.cu64 0));
  B.assign_var b a (Syn.Address_of (B.pvar x));
  B.assign_var b c (Syn.Address_of (B.pvar y));
  call_writer b a c;
  B.finish b

let alias_cfg program =
  {
    Analysis.Alias_lint.program;
    prim = (fun _ -> None);
    fn_layer = (fun _ -> None);
    accessor = (fun ~owner:_ ~callee:_ -> false);
  }

(* [Alias_lint.check] with the summaries it requires *)
let alias_check (cfg : Analysis.Alias_lint.config) ~funcs =
  Analysis.Alias_lint.check cfg
    ~infos:(Alias.analyze ~prim:cfg.Analysis.Alias_lint.prim cfg.Analysis.Alias_lint.program)
    ~funcs

let test_alias_footprint_fires () =
  let program =
    Syn.program_of_bodies
      [ fix_writer (); fix_caller_aliased (); fix_caller_disjoint () ]
  in
  let cfg = alias_cfg program in
  let findings, stats = alias_check cfg ~funcs:[ "caller_aliased" ] in
  let errors =
    List.filter
      (fun (_, (f : Lint.finding)) ->
        f.Lint.severity = Lint.Error && f.Lint.kind = Lint.Alias_footprint)
      findings
  in
  Alcotest.(check int) "aliased arguments fire once" 1 (List.length errors);
  Alcotest.(check bool) "stats count the finding" true
    (stats.Analysis.Alias_lint.findings >= 1);
  let findings, _ = alias_check cfg ~funcs:[ "caller_disjoint" ] in
  Alcotest.(check int) "disjoint arguments are clean" 0
    (List.length
       (List.filter
          (fun (_, (f : Lint.finding)) -> f.Lint.severity = Lint.Error)
          findings))

let test_alias_footprints_exact () =
  let program =
    Syn.program_of_bodies [ fix_writer (); fix_caller_disjoint () ]
  in
  let infos = Alias.analyze program in
  let fp = Alias.footprint infos "writer" in
  Alcotest.(check bool) "writer's footprint is exact" true (Alias.exact fp);
  Alcotest.(check bool) "writer writes both params" true
    (Alias.LocSet.mem (Alias.Lparam 0) fp.Alias.writes
    && Alias.LocSet.mem (Alias.Lparam 1) fp.Alias.writes);
  (* an unanalyzed name is fully unknown, never falsely exact *)
  let fp = Alias.footprint infos "no_such_fn" in
  Alcotest.(check bool) "missing function is inexact" false (Alias.exact fp)

(* Dead-block discharge: [name] switches on the constant [scrutinee],
   case 1 -> bb1 and otherwise bb2.  bb1 reads a never-written
   temporary (a move-init Error); bb2 returns 0, after calling [call]
   when given (the mutually recursive variant). *)
let fix_dead_uninit ?call ~name scrutinee =
  let b = B.create ~name ~params:[] ~ret_ty:u64 in
  let t = B.temp b u64 in
  let bb1 = B.fresh_block b in
  let bb2 = B.fresh_block b in
  B.terminate b
    (Syn.Switch_int
       (B.cu64 scrutinee, [ (Mir.Word.of_int Mir.Word.W64 1, bb1) ], bb2));
  B.switch_to b bb1;
  B.assign_var b Syn.return_var (Syn.Use (B.copy t));
  B.terminate b Syn.Return;
  B.switch_to b bb2;
  (match call with
  | None -> ()
  | Some func ->
      let r = B.temp b u64 in
      let ret = B.fresh_block b in
      B.terminate b
        (Syn.Call { dest = B.pvar r; func; args = []; target = Some ret });
      B.switch_to b ret);
  B.assign_var b Syn.return_var (Syn.Use (B.cu64 0));
  B.terminate b Syn.Return;
  B.finish b

let dead_cert fn =
  fn
  ^ " bb1[0]: [move-init] bb1 is abstractly unreachable (infeasible branch) \
     (discharged by alias-footprint)"

(* findings rendered one per line, and the certificate count *)
let alias_lines bodies ~funcs =
  let findings, stats =
    alias_check (alias_cfg (Syn.program_of_bodies bodies)) ~funcs
  in
  ( List.map (fun (fn, f) -> fn ^ " " ^ Lint.finding_to_string f) findings,
    stats.Analysis.Alias_lint.discharged )

let test_alias_dead_block_discharge () =
  let lines = Alcotest.(pair (list string) int) in
  Alcotest.check lines "infeasible branch discharges the uninit read"
    ([ dead_cert "dead_uninit" ], 1)
    (alias_lines [ fix_dead_uninit ~name:"dead_uninit" 0 ] ~funcs:[ "dead_uninit" ]);
  Alcotest.check lines "feasible branch: no certificate" ([], 0)
    (alias_lines [ fix_dead_uninit ~name:"dead_uninit" 1 ] ~funcs:[ "dead_uninit" ]);
  (* a two-member SCC: one solve serves both members, in order *)
  let scc ping pong =
    alias_lines
      [ fix_dead_uninit ~call:"pong" ~name:"ping" ping;
        fix_dead_uninit ~call:"ping" ~name:"pong" pong ]
      ~funcs:[ "ping"; "pong" ]
  in
  Alcotest.check lines "SCC, both branches infeasible"
    ([ dead_cert "ping"; dead_cert "pong" ], 2)
    (scc 0 0);
  Alcotest.check lines "SCC, only the second member's branch infeasible"
    ([ dead_cert "pong" ], 1)
    (scc 1 0);
  Alcotest.check lines "SCC, both branches feasible" ([], 0) (scc 1 1)

(* Under the trusted-primitive model every seed function's footprint is
   exact, so certificates may rest on any of them. *)
let test_alias_seed_footprints_exact () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let program = (Hyperenclave.Layers.compiled layout).Rustlite.Pipeline.program in
  let infos = Check.Code_proof.alias_summaries layout in
  let fns = Syn.body_names program in
  Alcotest.(check int) "seed functions" 50 (List.length fns);
  List.iter
    (fun fn ->
      Alcotest.(check bool) (fn ^ " footprint exact") true
        (Alias.exact (Alias.footprint infos fn)))
    fns;
  let cfg = { (alias_cfg program) with prim = Check.Code_proof.prim_summary } in
  let counted =
    List.fold_left
      (fun n funcs ->
        let _, stats = Analysis.Alias_lint.check cfg ~infos ~funcs in
        n + stats.Analysis.Alias_lint.footprints)
      0
      (Analysis.Callgraph.sccs (Analysis.Callgraph.build program))
  in
  Alcotest.(check int) "exact footprints over the SCCs" 50 counted

(* ------------------------------------------------------------------ *)
(* Callgraph SCC properties (Tarjan)                                   *)

let body_calling ~name callees =
  let b = B.create ~name ~params:[] ~ret_ty:Mir.Ty.Unit in
  List.iter
    (fun callee ->
      let ret = B.fresh_block b in
      B.terminate b
        (Syn.Call
           {
             dest = B.pvar Syn.return_var;
             func = callee;
             args = [];
             target = Some ret;
           });
      B.switch_to b ret)
    callees;
  B.terminate b Syn.Return;
  B.finish b

(* a <-> b cycle; both call c; c calls itself; d is isolated. *)
let scc_program () =
  Syn.program_of_bodies
    [
      body_calling ~name:"a" [ "b"; "c" ];
      body_calling ~name:"b" [ "a"; "c" ];
      body_calling ~name:"c" [ "c" ];
      body_calling ~name:"d" [];
    ]

let test_scc_self_loop () =
  let cg = Analysis.Callgraph.build (scc_program ()) in
  let sccs = Analysis.Callgraph.sccs cg in
  let scc_of_c = List.find (fun m -> List.mem "c" m) sccs in
  Alcotest.(check (list string)) "self-loop is its own SCC" [ "c" ] scc_of_c;
  (* callee_sccs never includes the SCC itself, even on a self-loop *)
  let sccs_arr = Array.of_list sccs in
  List.iteri
    (fun i members ->
      let callee_is = Analysis.Callgraph.callee_sccs cg members in
      Alcotest.(check bool)
        (Printf.sprintf "scc %d excludes itself" i)
        false (List.mem i callee_is);
      List.iter
        (fun j ->
          Alcotest.(check bool) "callee index in range" true
            (j >= 0 && j < Array.length sccs_arr))
        callee_is)
    sccs;
  let ab = List.find (fun m -> List.mem "a" m) sccs in
  Alcotest.(check (list string)) "mutual recursion is one SCC" [ "a"; "b" ]
    (List.sort compare ab)

let test_scc_determinism () =
  let p = scc_program () in
  let s1 = Analysis.Callgraph.sccs (Analysis.Callgraph.build p) in
  let s2 = Analysis.Callgraph.sccs (Analysis.Callgraph.build p) in
  Alcotest.(check bool) "SCC order reproducible" true (s1 = s2);
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let prog = (Hyperenclave.Layers.compiled layout).Rustlite.Pipeline.program in
  let t1 = Analysis.Callgraph.sccs (Analysis.Callgraph.build prog) in
  let t2 = Analysis.Callgraph.sccs (Analysis.Callgraph.build prog) in
  Alcotest.(check bool) "seed-stack SCC order reproducible" true (t1 = t2)

(* The condensation edges and the direct call edges must tell the same
   story: g in callees(f) with scc(g) <> scc(f) iff scc(g) is in
   callee_sccs of f's SCC. *)
let test_scc_condensation_agrees () =
  let p = scc_program () in
  let cg = Analysis.Callgraph.build p in
  let sccs = Array.of_list (Analysis.Callgraph.sccs cg) in
  Array.iteri
    (fun i members ->
      let callee_is = Analysis.Callgraph.callee_sccs cg members in
      let direct =
        List.sort_uniq compare
          (List.concat_map
             (fun f ->
               List.filter_map
                 (fun g ->
                   match Analysis.Callgraph.scc_of cg g with
                   | Some j when j <> i -> Some j
                   | _ -> None)
                 (Analysis.Callgraph.callees cg f))
             members)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "condensation edges of scc %d" i)
        direct
        (List.sort_uniq compare callee_is);
      (* reachability includes the members and every direct callee *)
      let reach = Analysis.Callgraph.reachable cg members in
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " reaches itself") true (List.mem f reach);
          List.iter
            (fun g ->
              if Analysis.Callgraph.scc_of cg g <> None then
                Alcotest.(check bool) (f ^ " reaches " ^ g) true
                  (List.mem g reach))
            (Analysis.Callgraph.callees cg f))
        members)
    sccs

(* ------------------------------------------------------------------ *)
(* The seed stack: all 50 functions, all lints, zero findings          *)

let test_seed_stack_clean () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let obls = Engine.Plan.analysis_obligations layout in
  Alcotest.(check int) "one obligation per function" 50 (List.length obls);
  List.iter
    (fun (o : Engine.Obligation.t) ->
      Alcotest.(check bool) "analysis phase" true
        (String.equal o.Engine.Obligation.phase "analysis");
      Alcotest.(check (list string)) "dependency-free" [] o.Engine.Obligation.deps;
      let outcome = o.Engine.Obligation.run () in
      List.iter
        (fun r ->
          if not (Mirverif.Report.ok r) then
            Alcotest.failf "findings in %s: %s" o.Engine.Obligation.id
              (Mirverif.Report.to_string r))
        outcome.Engine.Obligation.reports)
    obls

(* Borrow and alias phases over the seed stack: every obligation runs
   clean, and the obligation shapes match their phase conventions. *)
let test_seed_stack_borrow_alias_clean () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let run_all ~phase obls =
    Alcotest.(check bool) (phase ^ " nonempty") true (obls <> []);
    List.iter
      (fun (o : Engine.Obligation.t) ->
        Alcotest.(check bool) (phase ^ " phase") true
          (String.equal o.Engine.Obligation.phase phase);
        let outcome = o.Engine.Obligation.run () in
        List.iter
          (fun r ->
            if not (Mirverif.Report.ok r) then
              Alcotest.failf "findings in %s: %s" o.Engine.Obligation.id
                (Mirverif.Report.to_string r))
          outcome.Engine.Obligation.reports)
      obls
  in
  let borrow = Engine.Plan.borrow_obligations layout in
  Alcotest.(check int) "one borrow obligation per function" 50
    (List.length borrow);
  run_all ~phase:"borrow" borrow;
  run_all ~phase:"alias" (Engine.Plan.alias_obligations layout);
  (* deselecting the kinds empties the phases *)
  Alcotest.(check int) "borrow deselected" 0
    (List.length (Engine.Plan.borrow_obligations ~lints:Lint.all layout));
  Alcotest.(check int) "alias deselected" 0
    (List.length (Engine.Plan.alias_obligations ~lints:Lint.all layout))

let test_fingerprints_stable () =
  let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny in
  let fp os =
    List.map
      (fun (o : Engine.Obligation.t) ->
        (o.Engine.Obligation.id, o.Engine.Obligation.fingerprint))
      os
  in
  let a = fp (Engine.Plan.analysis_obligations layout) in
  let b = fp (Engine.Plan.analysis_obligations layout) in
  Alcotest.(check bool) "rebuild reproduces fingerprints" true (a = b);
  (* narrowing the lint selection must change every fingerprint: cached
     full-catalogue verdicts cannot answer for a narrower run *)
  let c = fp (Engine.Plan.analysis_obligations ~lints:[ Lint.Move_init ] layout) in
  List.iter2
    (fun (ida, fpa) (idc, fpc) ->
      Alcotest.(check string) "same ids" ida idc;
      Alcotest.(check bool) "different fingerprint" false (String.equal fpa fpc))
    a c

let () =
  Alcotest.run "analysis"
    [
      ( "framework",
        [
          Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "backward liveness" `Quick test_backward_liveness;
          Alcotest.test_case "loop fixpoint" `Quick test_loop_fixpoint;
        ] );
      ( "lints",
        [
          Alcotest.test_case "move-init fires" `Quick test_move_init_fires;
          Alcotest.test_case "encapsulation fires" `Quick test_encapsulation_fires;
          Alcotest.test_case "unchecked-arith fires" `Quick test_unchecked_arith_fires;
          Alcotest.test_case "unreachable fires" `Quick test_unreachable_fires;
          Alcotest.test_case "clean body" `Quick test_clean_body;
        ] );
      ( "selection",
        [
          Alcotest.test_case "kinds_of_string" `Quick test_kinds_of_string;
          Alcotest.test_case "group selectors" `Quick test_group_selectors;
          Alcotest.test_case "per-lint suppression" `Quick test_suppression;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ( "borrow",
        [
          Alcotest.test_case "conflicting-borrow" `Quick test_conflicting_borrow;
          Alcotest.test_case "dangling-handle" `Quick test_dangling_handle;
          Alcotest.test_case "move-while-borrowed" `Quick test_move_while_borrowed;
          Alcotest.test_case "borrow-lint report" `Quick test_borrow_lint_report;
        ] );
      ( "alias",
        [
          Alcotest.test_case "alias-footprint fires" `Quick test_alias_footprint_fires;
          Alcotest.test_case "footprints exact" `Quick test_alias_footprints_exact;
          Alcotest.test_case "dead-block discharge" `Quick
            test_alias_dead_block_discharge;
          Alcotest.test_case "seed footprints exact" `Quick
            test_alias_seed_footprints_exact;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "self-loop SCC" `Quick test_scc_self_loop;
          Alcotest.test_case "SCC determinism" `Quick test_scc_determinism;
          Alcotest.test_case "condensation agrees" `Quick test_scc_condensation_agrees;
        ] );
      ( "seed",
        [
          Alcotest.test_case "seed stack clean" `Quick test_seed_stack_clean;
          Alcotest.test_case "borrow+alias clean" `Quick
            test_seed_stack_borrow_alias_clean;
          Alcotest.test_case "fingerprints" `Quick test_fingerprints_stable;
        ] );
    ]
