(* Tests for the interprocedural abstract interpreter (lib/analysis):
   interval lattice laws (property-tested), widening/narrowing loop
   convergence, array-bounds certification, unchecked-arith discharge
   with reconciliation, the call-graph SCC condensation, the taint
   domain's summary substitution, and the secret-flow policy — the
   seed 15-layer stack must be clean while the planted hypercall leak
   fixtures must fire — and the summary table shared between checks,
   which must leave every check's findings those of a fresh context on
   programs built to break it.  Finishes with absint obligation
   fingerprint stability and an engine pool run over the absint DAG. *)

module Syn = Mir.Syntax
module B = Mir.Builder
module Word = Mir.Word
module Itv = Analysis.Interval
module Lint = Analysis.Lint
module Rng = Check.Rng

let u64 = Mir.Ty.Int Mir.Ty.U64
let layout = Hyperenclave.Layout.default Hyperenclave.Geometry.tiny

let seed_program () =
  (Hyperenclave.Layers.compiled layout).Rustlite.Pipeline.program

let compile_extra extra =
  let src = Hyperenclave.Mem_source.source layout ^ extra in
  (Rustlite.Pipeline.compile_exn src).Rustlite.Pipeline.program

(* ------------------------------------------------------------------ *)
(* Interval lattice laws (random intervals, deterministic stream)      *)

let rand_word rng =
  let choice, rng = Rng.int_below rng 4 in
  match choice with
  | 0 ->
      let n, rng = Rng.int_below rng 40 in
      (Word.of_int Word.W64 n, rng)
  | 1 -> (Word.umax, rng)
  | 2 ->
      let n, rng = Rng.int_below rng 40 in
      (Word.sub Word.W64 Word.umax (Word.of_int Word.W64 n), rng)
  | _ -> Rng.next rng

let rand_itv rng =
  let a, rng = rand_word rng in
  let b, rng = rand_word rng in
  (Itv.v (Word.min_u a b) (Word.max_u a b), rng)

let test_lattice_laws () =
  let rng = ref (Rng.make 7) in
  for _ = 1 to 500 do
    let a, r1 = rand_itv !rng in
    let b, r2 = rand_itv r1 in
    let c, r3 = rand_itv r2 in
    rng := r3;
    Alcotest.(check bool)
      "join commutative" true
      (Itv.equal (Itv.join a b) (Itv.join b a));
    Alcotest.(check bool)
      "join associative" true
      (Itv.equal (Itv.join a (Itv.join b c)) (Itv.join (Itv.join a b) c));
    Alcotest.(check bool) "join idempotent" true (Itv.equal (Itv.join a a) a);
    Alcotest.(check bool) "join upper bound" true (Itv.subset a (Itv.join a b));
    Alcotest.(check bool)
      "meet lower bound" true
      (Itv.is_bot (Itv.meet a b) || Itv.subset (Itv.meet a b) a);
    Alcotest.(check bool)
      "widen covers join" true
      (Itv.subset (Itv.join a b) (Itv.widen ~thresholds:[ 16L; 100L ] a b));
    let n = Itv.meet a b in
    if not (Itv.is_bot n) then begin
      let narrowed = Itv.narrow a n in
      Alcotest.(check bool) "narrow below widened" true (Itv.subset narrowed a);
      Alcotest.(check bool) "narrow above refined" true (Itv.subset n narrowed)
    end
  done

(* Any ascending widening chain stabilizes in a handful of steps: the
   bounds can only move to a threshold or to the lattice extremes. *)
let test_widening_terminates () =
  let rng = ref (Rng.make 11) in
  for _ = 1 to 100 do
    let v0, r = rand_itv !rng in
    let w = ref v0 and changes = ref 0 and r = ref r in
    for _ = 1 to 64 do
      let c, r' = rand_itv !r in
      r := r';
      let next = Itv.widen ~thresholds:[ 8L; 64L; 4096L ] !w (Itv.join !w c) in
      if not (Itv.equal next !w) then incr changes;
      Alcotest.(check bool) "chain ascends" true (Itv.subset !w next);
      w := next
    done;
    rng := !r;
    Alcotest.(check bool)
      (Printf.sprintf "chain stabilizes (%d changes)" !changes)
      true (!changes <= 8)
  done

(* ------------------------------------------------------------------ *)
(* Loop convergence: widening + narrowing recovers the exact bound     *)

let loop_src =
  {|
fn count_to() -> u64 {
    let mut i = 0;
    while i < 100 { i = i + 1; }
    i
}

fn count_unbounded(n: u64) -> u64 {
    let mut i = 0;
    while i < n { i = i + 1; }
    i
}
|}

let test_loop_convergence () =
  let program = compile_extra loop_src in
  let module A = Analysis.Interval_lint.A in
  let ctx = A.create_ctx ~prim:(fun ~func:_ ~args:_ -> None) program in
  (match A.analyze ctx "count_to" with
  | None -> Alcotest.fail "count_to has no body"
  | Some (body, soln) ->
      let ret = A.collapse (A.return_value body soln) in
      Alcotest.(check bool)
        (Printf.sprintf "exit interval is exactly 100 (got %s)"
           (Itv.to_string ret))
        true
        (Itv.equal ret (Itv.v 100L 100L)));
  (match A.analyze ctx "count_unbounded" with
  | None -> Alcotest.fail "count_unbounded has no body"
  | Some (body, soln) ->
      let ret = A.collapse (A.return_value body soln) in
      Alcotest.(check bool) "unbounded loop still sound" true
        (Itv.subset (Itv.v 0L 0L) ret));
  let st = A.stats ctx in
  Alcotest.(check bool)
    (Printf.sprintf "bounded visits (max %d)" st.A.max_visits)
    true
    (st.A.max_visits <= 10);
  Alcotest.(check bool)
    (Printf.sprintf "bounded iterations (%d)" st.A.iterations)
    true (st.A.iterations < 1000)

(* ------------------------------------------------------------------ *)
(* Bounds certification + unchecked-arith discharge                    *)

(* x & 3 indexes a 4-array (certified in bounds) and feeds a raw add
   (provably overflow-free, discharged); indexing and adding the raw
   parameter x stays flagged. *)
let fix_bounds () =
  let b = B.create ~name:"fix_bounds" ~params:[ ("_1", u64, Syn.Ktemp) ] ~ret_ty:u64 in
  let arr = B.local b ~name:"arr" (Mir.Ty.Array (u64, 4)) in
  let t = B.temp b u64 in
  let chk = B.temp b (Mir.Ty.Tuple [ u64; Mir.Ty.Bool ]) in
  let y = B.temp b u64 in
  let z = B.temp b u64 in
  let r1 = B.temp b u64 in
  let r2 = B.temp b u64 in
  B.assign_var b arr (Syn.Repeat (B.cu64 0, 4));
  B.assign_var b t (Syn.Binary (Syn.Bit_and, B.copy "_1", B.cu64 3));
  B.assign_var b chk (Syn.Checked_binary (Syn.Add, B.copy t, B.cu64 1));
  B.assign_var b y (Syn.Binary (Syn.Add, B.copy t, B.cu64 1));
  B.assign_var b z (Syn.Binary (Syn.Add, B.copy "_1", B.cu64 1));
  B.assign_var b r1 (Syn.Use (B.copy_place (B.pindex (B.pvar arr) t)));
  B.assign_var b r2 (Syn.Use (B.copy_place (B.pindex (B.pvar arr) "_1")));
  B.assign_var b Syn.return_var (Syn.Use (B.copy y));
  B.terminate b Syn.Return;
  B.finish b

let errors fs =
  List.filter (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error) fs

let test_bounds_and_discharge () =
  let body = fix_bounds () in
  let program = Syn.program_of_bodies [ body ] in
  let tagged, stats =
    Analysis.Interval_lint.check program ~funcs:[ "fix_bounds" ]
  in
  let fs = List.map snd tagged in
  Alcotest.(check int) "one index may escape" 1 stats.Analysis.Interval_lint.findings;
  Alcotest.(check int) "one arith site discharged" 1
    stats.Analysis.Interval_lint.discharged;
  Alcotest.(check bool) "several indexing sites examined" true
    (stats.Analysis.Interval_lint.bound_checks >= 2);
  let bounds_errors =
    List.filter (fun (f : Lint.finding) -> f.Lint.kind = Lint.Interval_bounds) (errors fs)
  in
  Alcotest.(check int) "bounds finding is the raw parameter" 1
    (List.length bounds_errors);
  (* reconciliation: the per-body arith lint flags both raw adds; the
     certificate cancels exactly the masked one *)
  let body_findings =
    Analysis.Pass.analyze
      { Analysis.Pass.default_config with Analysis.Pass.lints = [ Lint.Unchecked_arith ] }
      body
  in
  Alcotest.(check int) "per-body lint flags both raw adds" 2
    (List.length body_findings);
  let reconciled = Lint.reconcile (Lint.sort (body_findings @ fs)) in
  let remaining_arith =
    List.filter
      (fun (f : Lint.finding) -> f.Lint.kind = Lint.Unchecked_arith)
      (errors reconciled)
  in
  Alcotest.(check int) "discharge cancels the masked add" 1
    (List.length remaining_arith)

(* One two-member SCC with sites in one member only: [idx_a] indexes
   a 4-array with its parameter masked by 3 (in bounds) and with the
   raw parameter (may escape), then calls [idx_b]; [idx_b] indexes
   nothing and calls [idx_a]. *)
let fix_scc_index () =
  let call b func arg =
    let ret = B.fresh_block b in
    B.terminate b
      (Syn.Call
         { dest = B.pvar Syn.return_var; func; args = [ B.copy arg ]; target = Some ret });
    B.switch_to b ret;
    B.terminate b Syn.Return;
    B.finish b
  in
  let idx_a =
    let b = B.create ~name:"idx_a" ~params:[ ("_1", u64, Syn.Ktemp) ] ~ret_ty:u64 in
    let arr = B.local b ~name:"arr" (Mir.Ty.Array (u64, 4)) in
    let t = B.temp b u64 in
    let r1 = B.temp b u64 in
    let r2 = B.temp b u64 in
    B.assign_var b arr (Syn.Repeat (B.cu64 0, 4));
    B.assign_var b t (Syn.Binary (Syn.Bit_and, B.copy "_1", B.cu64 3));
    B.assign_var b r1 (Syn.Use (B.copy_place (B.pindex (B.pvar arr) t)));
    B.assign_var b r2 (Syn.Use (B.copy_place (B.pindex (B.pvar arr) "_1")));
    call b "idx_b" r2
  and idx_b =
    let b = B.create ~name:"idx_b" ~params:[ ("_1", u64, Syn.Ktemp) ] ~ret_ty:u64 in
    call b "idx_a" "_1"
  in
  Syn.program_of_bodies [ idx_a; idx_b ]

(* The member without a site does not exempt the SCC: in either member
   order both are solved and the findings, counts and iterations are
   the ones the unfiltered pass gave. *)
let test_scc_partial_sites () =
  let program = fix_scc_index () in
  let run funcs =
    let tagged, (st : Analysis.Interval_lint.stats) =
      Analysis.Interval_lint.check program ~funcs
    in
    ( List.map (fun (fn, f) -> fn ^ " " ^ Lint.finding_to_string f) tagged,
      [ st.functions; st.bound_checks; st.findings; st.discharged; st.iterations ] )
  in
  let escape =
    "idx_a bb0[3]: [interval-bounds] index _1 = [0x0, 0xffffffffffffffff] may \
     escape array bound 4"
  in
  let expect = Alcotest.(pair (list string) (list int)) in
  Alcotest.check expect "sites in the first member"
    ([ escape ], [ 2; 2; 1; 0; 30 ])
    (run [ "idx_a"; "idx_b" ]);
  Alcotest.check expect "sites in the second member"
    ([ escape ], [ 2; 2; 1; 0; 30 ])
    (run [ "idx_b"; "idx_a" ])

(* The interval side of the summary table (see [table_src] below for
   the secret-flow side): [eight] calls [ident] at 0..7 (and indexes
   with the last, so its own check solves it), so [after_eight]'s
   [ident(9)] is a ninth context and falls back to top, and its index
   into a 16-array may escape; [alone] reads the same index
   precisely. *)
let fix_interval_table () =
  let call b ~dest func args =
    let next = B.fresh_block b in
    B.terminate b (Syn.Call { dest = B.pvar dest; func; args; target = Some next });
    B.switch_to b next
  in
  let ident =
    let b = B.create ~name:"ident" ~params:[ ("_1", u64, Syn.Ktemp) ] ~ret_ty:u64 in
    B.assign_var b Syn.return_var (Syn.Use (B.copy "_1"));
    B.terminate b Syn.Return;
    B.finish b
  in
  let eight =
    let b = B.create ~name:"eight" ~params:[] ~ret_ty:u64 in
    let arr = B.local b ~name:"arr" (Mir.Ty.Array (u64, 16)) in
    let t = B.temp b u64 in
    B.assign_var b arr (Syn.Repeat (B.cu64 0, 16));
    for n = 0 to 7 do
      call b ~dest:t "ident" [ B.cu64 n ]
    done;
    B.assign_var b Syn.return_var (Syn.Use (B.copy_place (B.pindex (B.pvar arr) t)));
    B.terminate b Syn.Return;
    B.finish b
  in
  let reader ~name ~eight_first =
    let b = B.create ~name ~params:[] ~ret_ty:u64 in
    let arr = B.local b ~name:"arr" (Mir.Ty.Array (u64, 16)) in
    let t = B.temp b u64 in
    B.assign_var b arr (Syn.Repeat (B.cu64 0, 16));
    if eight_first then call b ~dest:t "eight" [];
    call b ~dest:t "ident" [ B.cu64 9 ];
    B.assign_var b Syn.return_var (Syn.Use (B.copy_place (B.pindex (B.pvar arr) t)));
    B.terminate b Syn.Return;
    B.finish b
  in
  Syn.program_of_bodies
    [ ident; eight; reader ~name:"after_eight" ~eight_first:true;
      reader ~name:"alone" ~eight_first:false ]

(* Each function checked through one interval table, in either order
   and alone, reports what a check without it reports; one order
   analyzes [after_eight] again. *)
let test_interval_table_exact () =
  let module IL = Analysis.Interval_lint in
  let program = fix_interval_table () in
  let run ?table fn =
    let tagged, (st : IL.stats) = IL.check ?table program ~funcs:[ fn ] in
    ( List.map (fun (fn, f) -> fn ^ " " ^ Lint.finding_to_string f) tagged,
      [ st.functions; st.bound_checks; st.findings; st.discharged ] )
  in
  let roots = [ "ident"; "eight"; "alone"; "after_eight" ] in
  let expect = Alcotest.(pair (list string) (list int)) in
  Alcotest.check expect "after_eight: fresh"
    ( [ "after_eight bb2[0]: [interval-bounds] index _t0 = [0x0, 0xffffffffffffffff] \
         may escape array bound 16" ],
      [ 1; 1; 1; 0 ] )
    (run "after_eight");
  Alcotest.check expect "alone: fresh" ([], [ 1; 1; 0; 0 ]) (run "alone");
  Alcotest.check expect "eight: fresh" ([], [ 1; 1; 0; 0 ]) (run "eight");
  let reruns =
    List.map
      (fun (what, order) ->
        let table = IL.A.create_table () in
        List.iter
          (fun fn ->
            Alcotest.check expect (Printf.sprintf "%s: %s" what fn) (run fn) (run ~table fn))
          order;
        IL.A.table_reruns table)
      ([ ("source order", roots); ("reverse order", List.rev roots) ]
      @ List.map (fun fn -> ("alone", [ fn ])) roots)
  in
  Alcotest.(check bool) "a check is analyzed again" true (List.exists (( < ) 0) reruns)

(* ------------------------------------------------------------------ *)
(* Secret flow: planted hypercall leaks fire, sanctioned path clean    *)

let leak_src =
  {|
// planted leak: copies a secret PTE word into OS-visible normal
// memory, bypassing the marshalling buffer
fn hc_leak_pte(dst: u64, off: u64) -> u64 {
    let w = phys_read(FRAME_BASE + (off & (PAGE_SIZE - 8)));
    phys_write(dst & (PAGE_SIZE - 1), w);
    OK
}

// planted leak: returns an enclave-page word in the OS's registers
fn hc_peek_epc(off: u64) -> u64 {
    phys_read(EPC_BASE + (off & (PAGE_SIZE - 8)))
}

// sanctioned: the same word through the marshalling-buffer window
fn hc_peek_mbuf(off: u64) -> u64 {
    let w = phys_read(FRAME_BASE + (off & (PAGE_SIZE - 8)));
    phys_write(MBUF_PHYS + (off & (PAGE_SIZE - 8)), w);
    OK
}

// the sink lives in the callee: the finding surfaces at the caller,
// whose actual is secret — not inside the label-polymorphic helper
fn copy_out(dst: u64, v: u64) {
    phys_write(dst & (PAGE_SIZE - 1), v);
}
fn hc_leak_via_helper(dst: u64, off: u64) -> u64 {
    let w = phys_read(EPC_BASE + (off & (PAGE_SIZE - 8)));
    copy_out(dst, w);
    OK
}
|}

let secret_flow_findings program fn =
  let cfg = Security.Labels.secret_flow_config layout program in
  fst (Analysis.Secret_flow.check cfg ~funcs:[ fn ])

let test_planted_leaks_fire () =
  let program = compile_extra leak_src in
  let count fn = List.length (secret_flow_findings program fn) in
  Alcotest.(check int) "write leak fires" 1 (count "hc_leak_pte");
  Alcotest.(check int) "return leak fires" 1 (count "hc_peek_epc");
  Alcotest.(check int) "mbuf declassification is clean" 0 (count "hc_peek_mbuf");
  Alcotest.(check int) "label-polymorphic helper is clean" 0 (count "copy_out");
  match secret_flow_findings program "hc_leak_via_helper" with
  | [ (fn, f) ] ->
      Alcotest.(check string) "caller-side finding" "hc_leak_via_helper" fn;
      Alcotest.(check bool) "detail names the helper" true
        (let re = Str.regexp_string "copy_out" in
         try
           ignore (Str.search_forward re f.Lint.detail 0);
           true
         with Not_found -> false)
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one caller-side finding, got %d"
           (List.length fs))

let test_policy_classification () =
  let module L = Security.Labels in
  let page = Int64.of_int (Hyperenclave.Geometry.page_size layout.Hyperenclave.Layout.geom) in
  let mbuf = layout.Hyperenclave.Layout.mbuf_base in
  let frame = layout.Hyperenclave.Layout.frame_base in
  let epc = layout.Hyperenclave.Layout.epc_base in
  (match L.classify_write layout (Itv.v mbuf (Int64.add mbuf (Int64.sub page 1L))) with
  | L.Declassified -> ()
  | _ -> Alcotest.fail "mbuf write should be declassified");
  (match L.classify_write layout (Itv.v 0L (Int64.sub page 1L)) with
  | L.Observable -> ()
  | _ -> Alcotest.fail "normal-memory write should be observable");
  (match L.classify_write layout (Itv.v frame frame) with
  | L.Internal -> ()
  | _ -> Alcotest.fail "frame-area write should be internal");
  (match L.classify_write layout Itv.top with
  | L.Internal -> ()
  | _ -> Alcotest.fail "unknown write target may be secure: internal");
  (match L.classify_read layout (Itv.v epc epc) with
  | L.Read_secret _ -> ()
  | L.Read_public -> Alcotest.fail "EPC read should be secret");
  (match L.classify_read layout (Itv.v 0L 7L) with
  | L.Read_public -> ()
  | L.Read_secret _ -> Alcotest.fail "normal read should be public");
  Alcotest.(check bool) "hc_create is a boundary" true (L.boundary layout "hc_create");
  Alcotest.(check bool) "walk is not a boundary" false (L.boundary layout "walk")

(* Three shapes around a one-line helper, built to break a summary
   context shared between checks: a context allows each function 8
   calling contexts and falls back to the top one past them, so a
   shared context's summaries depend on what it met before.
   - Eight public callers write their own mbuf word through [put_word],
     and [hc_ninth] writes an EPC word to address 16, in normal memory
     (fresh: [hc_ninth] leaks).
   - [mid_eight] writes the same eight mbuf words.  [leaf_caller]
     wraps [put_word(16, v)].  [hc_x] calls [mid_eight] and then
     [leaf_caller] on a public mbuf word, so its summary of
     [leaf_caller] falls back to the top context of [put_word], whose
     target may be secure memory; [hc_y] passes [leaf_caller] an EPC
     word of the same (top) interval (fresh: [hc_y] leaks).
   - [hc_mid_leak] calls [mid_eight] before writing an EPC word to
     address 16.  Fresh, that ninth context of [put_word] falls back,
     so the leak is missed: the imprecision the budget has. *)
let table_src =
  {|
fn put_word(dst: u64, v: u64) {
    phys_write(dst, v);
}
fn hc_pub0() -> u64 { put_word(MBUF_PHYS, 1); OK }
fn hc_pub1() -> u64 { put_word(MBUF_PHYS + 1, 1); OK }
fn hc_pub2() -> u64 { put_word(MBUF_PHYS + 2, 1); OK }
fn hc_pub3() -> u64 { put_word(MBUF_PHYS + 3, 1); OK }
fn hc_pub4() -> u64 { put_word(MBUF_PHYS + 4, 1); OK }
fn hc_pub5() -> u64 { put_word(MBUF_PHYS + 5, 1); OK }
fn hc_pub6() -> u64 { put_word(MBUF_PHYS + 6, 1); OK }
fn hc_pub7() -> u64 { put_word(MBUF_PHYS + 7, 1); OK }
fn hc_ninth(off: u64) -> u64 {
    let w = phys_read(EPC_BASE + (off & (PAGE_SIZE - 8)));
    put_word(16, w);
    OK
}

fn mid_eight() {
    put_word(MBUF_PHYS, 1);
    put_word(MBUF_PHYS + 1, 1);
    put_word(MBUF_PHYS + 2, 1);
    put_word(MBUF_PHYS + 3, 1);
    put_word(MBUF_PHYS + 4, 1);
    put_word(MBUF_PHYS + 5, 1);
    put_word(MBUF_PHYS + 6, 1);
    put_word(MBUF_PHYS + 7, 1);
}
fn leaf_caller(v: u64) {
    put_word(16, v);
}
fn hc_x(off: u64) -> u64 {
    mid_eight();
    let w = phys_read(MBUF_PHYS + (off & (PAGE_SIZE - 8)));
    leaf_caller(w);
    OK
}
fn hc_y(off: u64) -> u64 {
    let w = phys_read(EPC_BASE + (off & (PAGE_SIZE - 8)));
    leaf_caller(w);
    OK
}

fn hc_mid_leak(off: u64) -> u64 {
    mid_eight();
    let w = phys_read(EPC_BASE + (off & (PAGE_SIZE - 8)));
    put_word(16, w);
    OK
}
|}

let table_roots =
  [ "put_word" ]
  @ List.init 8 (Printf.sprintf "hc_pub%d")
  @ [ "hc_ninth"; "mid_eight"; "leaf_caller"; "hc_x"; "hc_y"; "hc_mid_leak" ]

(* Each root checked through one summary table reports exactly what a
   check without the table reports: in source order, in reverse order,
   in every rotation of either, and alone.  One context shared by every
   root would not: it gets both orders wrong.  In source order the
   table is reused and a root is analyzed again. *)
let test_summary_table_exact () =
  let module SF = Analysis.Secret_flow in
  let program = compile_extra table_src in
  let cfg = Security.Labels.secret_flow_config layout program in
  let text = List.map (fun (fn, f) -> fn ^ " " ^ Lint.finding_to_string f) in
  let fresh = List.map (fun fn -> (fn, SF.check cfg ~funcs:[ fn ])) table_roots in
  let expected fn = text (fst (List.assoc fn fresh)) in
  List.iter
    (fun (fn, n) ->
      Alcotest.(check int) (fn ^ ": fresh findings") n (List.length (expected fn)))
    [ ("hc_ninth", 1); ("hc_x", 0); ("hc_y", 1); ("hc_mid_leak", 0) ];
  let through what order =
    let table = SF.A.create_table () in
    List.iter
      (fun fn ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: %s" what fn)
          (expected fn)
          (text (fst (SF.check ~table cfg ~funcs:[ fn ]))))
      order;
    table
  in
  let rotate k l = List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l in
  let forward = through "source order" table_roots in
  List.iter
    (fun (what, order) ->
      List.iteri
        (fun k _ -> ignore (through (Printf.sprintf "%s, rotation %d" what k) (rotate k order)))
        order)
    [ ("source order", table_roots); ("reverse order", List.rev table_roots) ];
  List.iter (fun fn -> ignore (through "alone" [ fn ])) table_roots;
  let fresh_summaries =
    List.fold_left (fun n (_, (_, (s : SF.stats))) -> n + s.SF.summaries) 0 fresh
  in
  Alcotest.(check bool)
    (Printf.sprintf "source order reuses summaries (%d computed, %d fresh)"
       (SF.A.table_summaries forward) fresh_summaries)
    true
    (SF.A.table_summaries forward < fresh_summaries);
  Alcotest.(check bool) "source order analyzes a root again" true
    (SF.A.table_reruns forward > 0);
  let all = List.sort compare (List.concat_map expected table_roots) in
  List.iter
    (fun (what, order) ->
      Alcotest.(check bool) (what ^ ": one shared context is wrong") true
        (List.sort compare (text (fst (SF.check cfg ~funcs:order))) <> all))
    [ ("source order", table_roots); ("reverse order", List.rev table_roots) ]

(* The seed stack carries secrets internally but must produce zero
   findings in either domain: every write is secure-internal or
   mbuf-declassified and no hypercall returns secret-derived data. *)
let test_seed_stack_clean () =
  let program = seed_program () in
  let cg = Analysis.Callgraph.build program in
  let sccs = Analysis.Callgraph.sccs cg in
  let cfg = Security.Labels.secret_flow_config layout program in
  List.iter
    (fun funcs ->
      let sf, _ = Analysis.Secret_flow.check cfg ~funcs in
      Alcotest.(check int)
        (Printf.sprintf "secret-flow clean: %s" (String.concat "+" funcs))
        0 (List.length sf);
      let itv, stats = Analysis.Interval_lint.check program ~funcs in
      ignore itv;
      Alcotest.(check int)
        (Printf.sprintf "interval clean: %s" (String.concat "+" funcs))
        0 stats.Analysis.Interval_lint.findings)
    sccs

(* Widening-threshold budget: thresholds are harvested only from
   literals a branch can test against (comparisons, switch cases,
   asserts) — harvesting every body literal used to cost 8,419 interval
   iterations over the seed stack.  Pins the trim: solving every seed
   SCC in a fresh context, as the bounds pass did before it skipped
   SCCs without a site, must stay strictly below the old count.  The
   pass itself finds nothing and, since no seed SCC has an index
   projection or an unchecked-arith site, solves nothing. *)
let test_seed_stack_iteration_budget () =
  let module A = Analysis.Interval_lint.A in
  let program = seed_program () in
  let cg = Analysis.Callgraph.build program in
  let sccs = Analysis.Callgraph.sccs cg in
  let iters = ref 0 in
  let check_iters = ref 0 in
  let findings = ref 0 in
  List.iter
    (fun funcs ->
      let ctx = A.create_ctx ~prim:(fun ~func:_ ~args:_ -> None) program in
      List.iter (fun fn -> ignore (A.analyze ctx fn)) funcs;
      iters := !iters + (A.stats ctx).A.iterations;
      let _, stats = Analysis.Interval_lint.check program ~funcs in
      check_iters := !check_iters + stats.Analysis.Interval_lint.iterations;
      findings := !findings + stats.Analysis.Interval_lint.findings)
    sccs;
  Alcotest.(check int) "still zero findings" 0 !findings;
  Alcotest.(check int) "no seed SCC is solved by the pass" 0 !check_iters;
  Alcotest.(check bool)
    (Printf.sprintf "iteration total below the pre-trim 8419 (got %d)" !iters)
    true (!iters < 8419)

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)

let test_callgraph () =
  let program = compile_extra leak_src in
  let cg = Analysis.Callgraph.build program in
  let reach = Analysis.Callgraph.reachable cg [ "hc_leak_via_helper" ] in
  Alcotest.(check bool) "closure includes the helper" true
    (List.mem "copy_out" reach);
  Alcotest.(check bool) "closure includes the root" true
    (List.mem "hc_leak_via_helper" reach);
  (* callees-first: every callee SCC index precedes the caller's *)
  let sccs = Array.of_list (Analysis.Callgraph.sccs cg) in
  Array.iteri
    (fun i members ->
      List.iter
        (fun j ->
          Alcotest.(check bool) "callee SCCs come first" true (j < i))
        (Analysis.Callgraph.callee_sccs cg members))
    sccs

(* ------------------------------------------------------------------ *)
(* Engine: fingerprint stability, SCC deps, pool run                   *)

let test_absint_obligations () =
  let obls = Engine.Plan.absint_obligations layout in
  let again = Engine.Plan.absint_obligations layout in
  let sig_of (o : Engine.Obligation.t) = (o.Engine.Obligation.id, o.Engine.Obligation.fingerprint) in
  Alcotest.(check bool) "fingerprints are stable across builds" true
    (List.map sig_of obls = List.map sig_of again);
  let cg = Analysis.Callgraph.build (seed_program ()) in
  Alcotest.(check int) "two domains per SCC"
    (2 * List.length (Analysis.Callgraph.sccs cg))
    (List.length obls);
  let ids = List.map (fun (o : Engine.Obligation.t) -> o.Engine.Obligation.id) obls in
  List.iter
    (fun (o : Engine.Obligation.t) ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "deps resolve to absint ids" true (List.mem d ids))
        o.Engine.Obligation.deps)
    obls;
  (* interval fingerprints are layout-free; secret-flow ones aren't *)
  List.iter
    (fun (o : Engine.Obligation.t) ->
      let has_layout =
        let re = Str.regexp_string "layout{" in
        try
          ignore (Str.search_forward re o.Engine.Obligation.fingerprint 0);
          true
        with Not_found -> false
      in
      let is_secret =
        String.length o.Engine.Obligation.id >= 18
        && String.sub o.Engine.Obligation.id 0 18 = "absint/secret-flow"
      in
      Alcotest.(check bool)
        (Printf.sprintf "layout in fingerprint iff secret-flow (%s)"
           o.Engine.Obligation.id)
        is_secret has_layout)
    obls;
  (* the whole absint DAG executes green on the seed *)
  let execs = Engine.Pool.run (Engine.Dag.build_exn obls) in
  Alcotest.(check int) "all obligations ran" (List.length obls) (List.length execs);
  List.iter
    (fun (e : Engine.Pool.exec) ->
      Alcotest.(check int)
        (Printf.sprintf "green: %s" e.Engine.Pool.obligation.Engine.Obligation.id)
        0
        (Engine.Obligation.failure_count e.Engine.Pool.outcome))
    execs

let () =
  Alcotest.run "absint"
    [
      ( "interval",
        [
          Alcotest.test_case "lattice laws" `Quick test_lattice_laws;
          Alcotest.test_case "widening terminates" `Quick test_widening_terminates;
          Alcotest.test_case "loop convergence" `Quick test_loop_convergence;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "bounds + discharge" `Quick test_bounds_and_discharge;
          Alcotest.test_case "SCC with sites in one member" `Quick
            test_scc_partial_sites;
          Alcotest.test_case "interval table stays exact" `Quick test_interval_table_exact;
        ] );
      ( "secret-flow",
        [
          Alcotest.test_case "policy classification" `Quick test_policy_classification;
          Alcotest.test_case "planted leaks fire" `Quick test_planted_leaks_fire;
          Alcotest.test_case "summary table stays exact" `Quick test_summary_table_exact;
          Alcotest.test_case "seed stack clean" `Quick test_seed_stack_clean;
          Alcotest.test_case "iteration budget" `Quick
            test_seed_stack_iteration_budget;
        ] );
      ( "engine",
        [
          Alcotest.test_case "callgraph" `Quick test_callgraph;
          Alcotest.test_case "absint obligations" `Quick test_absint_obligations;
        ] );
    ]
