(* Unit and property tests for the MIRlight semantics. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> msg

(* ------------------------------------------------------------------ *)
(* Word                                                                *)

let test_word_norm () =
  Alcotest.(check int64) "u8 wrap" 0x34L (Mir.Word.of_int Mir.Word.W8 0x1234);
  Alcotest.(check int64) "u16 wrap" 0x1234L (Mir.Word.of_int Mir.Word.W16 0x1234);
  Alcotest.(check int64) "add wraps" 0L
    (Mir.Word.add Mir.Word.W8 (Mir.Word.of_int Mir.Word.W8 255) 1L)

let test_word_bitfields () =
  let w = 0xDEAD_BEEF_1234_5678L in
  Alcotest.(check int64) "extract low nibble" 0x8L (Mir.Word.extract w ~lo:0 ~len:4);
  Alcotest.(check int64) "extract mid" 0xBEL (Mir.Word.extract w ~lo:40 ~len:8);
  let w' = Mir.Word.insert w ~lo:0 ~len:8 0xAAL in
  Alcotest.(check int64) "insert low byte" 0xDEAD_BEEF_1234_56AAL w';
  Alcotest.(check bool) "bit 3 set" true (Mir.Word.bit 0x8L 3);
  Alcotest.(check int64) "set bit" 0x9L (Mir.Word.set_bit 0x8L 0 true);
  Alcotest.(check int64) "clear bit" 0x8L (Mir.Word.set_bit 0x9L 0 false)

let test_word_unsigned_div () =
  (* 2^63 has the sign bit set; unsigned division must treat it as large *)
  let big = Int64.min_int in
  Alcotest.(check (option int64))
    "unsigned div" (Some 0x4000_0000_0000_0000L)
    (Mir.Word.div Mir.Word.W64 big 2L);
  Alcotest.(check (option int64)) "div by zero" None (Mir.Word.div Mir.Word.W64 1L 0L);
  Alcotest.(check bool) "unsigned lt" true (Mir.Word.lt_u 1L big)

(* Sign-boundary regression for the address path: addresses at and
   above 0x8000_0000_0000_0000 set the Int64 sign bit, so any signed
   compare or division slip orders the upper half of the address space
   below the lower half (or yields a negative page count). *)
let test_word_sign_boundary () =
  let half = 0x8000_0000_0000_0000L in
  let below = 0x7FFF_FFFF_FFFF_FFFFL in
  let top = 0xFFFF_FFFF_FFFF_FFFFL in
  Alcotest.(check bool) "last low address below first high address" true
    (Mir.Word.lt_u below half);
  Alcotest.(check bool) "no wraparound ordering" false (Mir.Word.lt_u half below);
  Alcotest.(check bool) "le_u reflexive at the boundary" true (Mir.Word.le_u half half);
  Alcotest.(check bool) "top address is the maximum" true (Mir.Word.le_u half top);
  Alcotest.(check bool) "nothing exceeds the top address" false (Mir.Word.lt_u top half);
  (* the page-count idiom of the boot identity mapper: a byte distance
     past [Int64.max_int] must still divide to the exact page count *)
  Alcotest.(check (option int64))
    "page count across the boundary"
    (Some 0x8_0000_0000_0001L)
    (Mir.Word.div Mir.Word.W64 0x8000_0000_0000_1000L 0x1000L);
  Alcotest.(check int64) "unsigned_div agrees with Word.div"
    0x8_0000_0000_0001L
    (Int64.unsigned_div 0x8000_0000_0000_1000L 0x1000L)

(* [to_hex] prints the bytes of [Printf.sprintf "0x%Lx"]: the corner
   words, then 10,000 words of every length from a fixed seed. *)
let test_word_to_hex () =
  List.iter
    (fun w ->
      Alcotest.(check string) (Printf.sprintf "%Ld" w) (Printf.sprintf "0x%Lx" w)
        (Mir.Word.to_hex w))
    [ 0L; 1L; 15L; 16L; 255L; Int64.max_int; Int64.min_int; -1L ];
  Alcotest.(check string) "zero" "0x0" (Mir.Word.to_hex 0L);
  Alcotest.(check string) "all ones" "0xffffffffffffffff" (Mir.Word.to_hex (-1L));
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 10_000 do
    let w =
      Int64.shift_right_logical (Random.State.bits64 rng) (Random.State.int rng 64)
    in
    let expected = Printf.sprintf "0x%Lx" w in
    if not (String.equal (Mir.Word.to_hex w) expected) then
      Alcotest.failf "to_hex %Ld = %s, expected %s" w (Mir.Word.to_hex w) expected
  done

let prop_insert_extract =
  QCheck2.Test.make ~count:500 ~name:"word insert/extract roundtrip"
    QCheck2.Gen.(triple (int_bound 56) (int_range 1 8) ui64)
    (fun (lo, len, w) ->
      let field = Mir.Word.extract w ~lo ~len in
      Mir.Word.equal (Mir.Word.insert w ~lo ~len field) w)

(* ------------------------------------------------------------------ *)
(* Value: projection and update                                        *)

let v_nested : unit Mir.Value.t =
  (* #1{ [| {10, 20}, {30, 40} |], true } *)
  Mir.Value.variant 1
    [
      Mir.Value.Arr
        [|
          Mir.Value.tuple [ Mir.Value.usize 10; Mir.Value.usize 20 ];
          Mir.Value.tuple [ Mir.Value.usize 30; Mir.Value.usize 40 ];
        |];
      Mir.Value.bool true;
    ]

let test_value_project () =
  let open Mir.Path in
  let got =
    check_ok "project"
      (Mir.Value.project_many v_nested [ Field 0; Index 1; Field 0 ])
  in
  Alcotest.(check bool) "project path" true (Mir.Value.equal got (Mir.Value.usize 30));
  let _ = check_err "oob field" (Mir.Value.project v_nested (Field 5)) in
  let _ = check_err "index struct" (Mir.Value.project v_nested (Index 0)) in
  ()

let test_value_update () =
  let open Mir.Path in
  let v' =
    check_ok "update"
      (Mir.Value.update v_nested [ Field 0; Index 0; Field 1 ] (Mir.Value.usize 99))
  in
  let got = check_ok "re-read" (Mir.Value.project_many v' [ Field 0; Index 0; Field 1 ]) in
  Alcotest.(check bool) "updated" true (Mir.Value.equal got (Mir.Value.usize 99));
  (* untouched sibling *)
  let sib = check_ok "sibling" (Mir.Value.project_many v' [ Field 0; Index 0; Field 0 ]) in
  Alcotest.(check bool) "sibling untouched" true (Mir.Value.equal sib (Mir.Value.usize 10));
  (* persistence: original value unchanged (arrays are copied) *)
  let orig = check_ok "orig" (Mir.Value.project_many v_nested [ Field 0; Index 0; Field 1 ]) in
  Alcotest.(check bool) "persistent" true (Mir.Value.equal orig (Mir.Value.usize 20))

let value_gen : unit Mir.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> Mir.Value.usize (abs i mod 1000)) int;
            map Mir.Value.bool bool;
            return Mir.Value.unit;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map2
                (fun d fs -> Mir.Value.variant (abs d mod 4) fs)
                int
                (list_size (int_range 1 3) (self (n / 2))) );
            (1, map (fun l -> Mir.Value.Arr (Array.of_list l))
                 (list_size (int_range 1 3) (self (n / 2))));
          ])

let prop_value_equal_refl =
  QCheck2.Test.make ~count:300 ~name:"value equality is reflexive" value_gen
    (fun v -> Mir.Value.equal v v)

(* ------------------------------------------------------------------ *)
(* Mem: frame condition                                                *)

let test_mem_rw () =
  let mem = Mir.Mem.empty in
  let base = Mir.Path.Global "g" in
  let mem = Mir.Mem.define base (v_nested : unit Mir.Value.t) mem in
  let p = Mir.Path.{ base; projs = [ Field 0; Index 1; Field 1 ] } in
  let got = check_ok "read" (Mir.Mem.read mem p) in
  Alcotest.(check bool) "read value" true (Mir.Value.equal got (Mir.Value.usize 40));
  let mem' = check_ok "write" (Mir.Mem.write mem p (Mir.Value.usize 7)) in
  let got' = check_ok "reread" (Mir.Mem.read mem' p) in
  Alcotest.(check bool) "written" true (Mir.Value.equal got' (Mir.Value.usize 7))

let test_mem_undefined () =
  let p = Mir.Path.global "nope" in
  let _ = check_err "read undefined" (Mir.Mem.read Mir.Mem.empty p) in
  let p2 = Mir.Path.extend p (Mir.Path.Field 0) in
  let _ = check_err "proj write undefined" (Mir.Mem.write Mir.Mem.empty p2 Mir.Value.unit) in
  (* whole-object store allocates *)
  let _ = check_ok "whole write" (Mir.Mem.write Mir.Mem.empty p Mir.Value.unit) in
  ()

(* Assignment only changes the assigned location (the paper's
   assignment axiom, here a theorem). *)
let prop_mem_frame_condition =
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 1) (int_range 0 1) >>= fun (i, j) ->
      pair (return (i, j)) (int_range 0 999))
  in
  QCheck2.Test.make ~count:300 ~name:"mem write frame condition" gen
    (fun ((i, j), fresh) ->
      let base = Mir.Path.Global "g" in
      let mem = Mir.Mem.define base v_nested Mir.Mem.empty in
      let target = Mir.Path.{ base; projs = [ Field 0; Index i; Field j ] } in
      let other = Mir.Path.{ base; projs = [ Field 0; Index (1 - i); Field j ] } in
      match Mir.Mem.write mem target (Mir.Value.usize fresh) with
      | Error _ -> false
      | Ok mem' -> (
          match (Mir.Mem.read mem other, Mir.Mem.read mem' other) with
          | Ok before, Ok after -> Mir.Value.equal before after
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Eval                                                                *)

let u64v i : unit Mir.Value.t = Mir.Value.int Mir.Ty.U64 i

let test_eval_arith () =
  let add = check_ok "add" (Mir.Eval.binary Mir.Syntax.Add (u64v 2) (u64v 3)) in
  Alcotest.(check bool) "2+3" true (Mir.Value.equal add (u64v 5));
  let _ = check_err "mismatched widths"
      (Mir.Eval.binary Mir.Syntax.Add (u64v 2) (Mir.Value.int Mir.Ty.U8 3)) in
  let _ = check_err "div by zero" (Mir.Eval.binary Mir.Syntax.Div (u64v 2) (u64v 0)) in
  let shl = check_ok "shl" (Mir.Eval.binary Mir.Syntax.Shl (u64v 1) (Mir.Value.int Mir.Ty.U32 12)) in
  Alcotest.(check bool) "1<<12" true (Mir.Value.equal shl (u64v 4096));
  let _ = check_err "shift range" (Mir.Eval.binary Mir.Syntax.Shl (u64v 1) (Mir.Value.int Mir.Ty.U32 64)) in
  ()

let test_eval_checked () =
  let v = check_ok "checked add"
      (Mir.Eval.checked_binary Mir.Syntax.Add
         (Mir.Value.int Mir.Ty.U8 250) (Mir.Value.int Mir.Ty.U8 10))
  in
  (match v with
  | Mir.Value.Struct (0, [ r; Mir.Value.Bool ovf ]) ->
      Alcotest.(check bool) "wrapped result" true
        (Mir.Value.equal r (Mir.Value.int Mir.Ty.U8 4));
      Alcotest.(check bool) "overflow flag" true ovf
  | _ -> Alcotest.fail "checked add shape");
  let v2 = check_ok "checked ok"
      (Mir.Eval.checked_binary Mir.Syntax.Add (u64v 1) (u64v 2))
  in
  match v2 with
  | Mir.Value.Struct (0, [ _; Mir.Value.Bool ovf ]) ->
      Alcotest.(check bool) "no overflow" false ovf
  | _ -> Alcotest.fail "checked add shape"

let test_eval_signed_compare () =
  let minus_one = Mir.Value.word Mir.Ty.I64 (-1L) in
  let one = Mir.Value.word Mir.Ty.I64 1L in
  let lt = check_ok "signed lt" (Mir.Eval.binary Mir.Syntax.Lt minus_one one) in
  Alcotest.(check bool) "-1 < 1 signed" true (Mir.Value.equal lt (Mir.Value.bool true));
  let m1u = Mir.Value.word Mir.Ty.U64 (-1L) in
  let oneu = Mir.Value.word Mir.Ty.U64 1L in
  let ltu = check_ok "unsigned lt" (Mir.Eval.binary Mir.Syntax.Lt m1u oneu) in
  Alcotest.(check bool) "max_u64 < 1 unsigned is false" true
    (Mir.Value.equal ltu (Mir.Value.bool false))

(* ------------------------------------------------------------------ *)
(* Interp: whole-function executions                                   *)

open Mir.Builder

(* fn add1(x: u64) -> u64 { x + 1 } *)
let body_add1 () =
  let b = create ~name:"add1" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  assign_var b "_0" (Mir.Syntax.Binary (Mir.Syntax.Add, copy "_1", cu64 1));
  terminate b Mir.Syntax.Return;
  finish b

(* fn tri(n: u64) -> u64 { sum of 1..=n, via a loop } *)
let body_tri () =
  let b = create ~name:"tri" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  let acc = temp b ~name:"acc" (Mir.Ty.Int Mir.Ty.U64) in
  let i = temp b ~name:"i" (Mir.Ty.Int Mir.Ty.U64) in
  let cond = temp b ~name:"cond" Mir.Ty.Bool in
  let head = fresh_block b in
  let body_blk = fresh_block b in
  let exit = fresh_block b in
  assign_var b acc (Mir.Syntax.Use (cu64 0));
  assign_var b i (Mir.Syntax.Use (cu64 1));
  terminate b (Mir.Syntax.Goto head);
  switch_to b head;
  assign_var b cond (Mir.Syntax.Binary (Mir.Syntax.Le, copy i, copy "_1"));
  terminate b (Mir.Syntax.Switch_int (copy cond, [ (0L, exit) ], body_blk));
  switch_to b body_blk;
  assign_var b acc (Mir.Syntax.Binary (Mir.Syntax.Add, copy acc, copy i));
  assign_var b i (Mir.Syntax.Binary (Mir.Syntax.Add, copy i, cu64 1));
  terminate b (Mir.Syntax.Goto head);
  switch_to b exit;
  assign_var b "_0" (Mir.Syntax.Use (copy acc));
  terminate b Mir.Syntax.Return;
  finish b

(* fn call_add1_twice(x) -> u64 { add1(add1(x)) } *)
let body_call_twice () =
  let b = create ~name:"call_add1_twice"
      ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  let t = temp b (Mir.Ty.Int Mir.Ty.U64) in
  let after1 = fresh_block b in
  let after2 = fresh_block b in
  terminate b (Mir.Syntax.Call { dest = pvar t; func = "add1"; args = [ copy "_1" ]; target = Some after1 });
  switch_to b after1;
  terminate b (Mir.Syntax.Call { dest = pvar "_0"; func = "add1"; args = [ copy t ]; target = Some after2 });
  switch_to b after2;
  terminate b Mir.Syntax.Return;
  finish b

(* Local (address-taken) variable mutated through a pointer:
   fn through_ptr() -> u64 { let mut x = 5; let p = &mut x; *p = 9; x } *)
let body_through_ptr () =
  let b = create ~name:"through_ptr" ~params:[] ~ret_ty:(Mir.Ty.Int Mir.Ty.U64) in
  let x = local b ~name:"x" (Mir.Ty.Int Mir.Ty.U64) in
  let p = temp b ~name:"p" (Mir.Ty.Ref (Mir.Ty.Int Mir.Ty.U64)) in
  assign_var b x (Mir.Syntax.Use (cu64 5));
  assign_var b p (Mir.Syntax.Ref (pvar x));
  assign b (pderef (pvar p)) (Mir.Syntax.Use (cu64 9));
  assign_var b "_0" (Mir.Syntax.Use (copy x));
  terminate b Mir.Syntax.Return;
  finish b

(* Dereferencing an RData handle must fault. *)
let body_deref_rdata () =
  let b = create ~name:"deref_rdata" ~params:[] ~ret_ty:(Mir.Ty.Int Mir.Ty.U64) in
  let h = temp b ~name:"h" (Mir.Ty.Ref (Mir.Ty.Opaque "secret")) in
  let after = fresh_block b in
  terminate b (Mir.Syntax.Call { dest = pvar h; func = "make_handle"; args = []; target = Some after });
  switch_to b after;
  assign_var b "_0" (Mir.Syntax.Use (Mir.Syntax.Copy (pderef (pvar h))));
  terminate b Mir.Syntax.Return;
  finish b

let unit_env bodies : unit Mir.Interp.env =
  Mir.Interp.env ~prims:[] (Mir.Syntax.program_of_bodies bodies)

let run_fn ?fuel env fn args =
  Mir.Interp.call ?fuel env ~abs:() ~mem:Mir.Mem.empty fn args

let expect_ret what r expected =
  match r with
  | Error e -> Alcotest.failf "%s: %s" what (Mir.Interp.error_to_string e)
  | Ok (o : unit Mir.Interp.outcome) ->
      Alcotest.(check bool)
        (what ^ " return value")
        true
        (Mir.Value.equal o.Mir.Interp.ret expected)

let test_interp_add1 () =
  expect_ret "add1" (run_fn (unit_env [ body_add1 () ]) "add1" [ u64v 41 ]) (u64v 42)

let test_interp_loop () =
  expect_ret "tri 10" (run_fn (unit_env [ body_tri () ]) "tri" [ u64v 10 ]) (u64v 55);
  expect_ret "tri 0" (run_fn (unit_env [ body_tri () ]) "tri" [ u64v 0 ]) (u64v 0)

let test_interp_calls () =
  expect_ret "nested calls"
    (run_fn (unit_env [ body_add1 (); body_call_twice () ]) "call_add1_twice" [ u64v 40 ])
    (u64v 42)

let test_interp_through_ptr () =
  expect_ret "through_ptr" (run_fn (unit_env [ body_through_ptr () ]) "through_ptr" []) (u64v 9)

let test_interp_rdata_faults () =
  let make_handle =
    {
      Mir.Interp.prim_name = "make_handle";
      prim_exec =
        (fun abs _args ->
          Ok (abs, Mir.Value.ptr_rdata ~layer:"L3" ~name:"secret" [ 0 ]));
    }
  in
  let env =
    Mir.Interp.env ~prims:[ make_handle ]
      (Mir.Syntax.program_of_bodies [ body_deref_rdata () ])
  in
  match run_fn env "deref_rdata" [] with
  | Ok _ -> Alcotest.fail "RData dereference should fault"
  | Error (Mir.Interp.Fault { msg; _ }) ->
      Alcotest.(check bool) "mentions encapsulation" true
        (contains msg "encapsulated")
  | Error e -> Alcotest.failf "unexpected error: %s" (Mir.Interp.error_to_string e)

let test_interp_out_of_fuel () =
  let b = create ~name:"spin" ~params:[] ~ret_ty:Mir.Ty.Unit in
  terminate b (Mir.Syntax.Goto 0);
  let body = finish b in
  match run_fn ~fuel:100 (unit_env [ body ]) "spin" [] with
  | Error Mir.Interp.Out_of_fuel -> ()
  | Ok _ -> Alcotest.fail "spin should not terminate"
  | Error e -> Alcotest.failf "unexpected: %s" (Mir.Interp.error_to_string e)

let test_interp_assert () =
  let b = create ~name:"asrt" ~params:[ ("_1", Mir.Ty.Bool, Mir.Syntax.Ktemp) ] ~ret_ty:Mir.Ty.Unit in
  let ok_blk = fresh_block b in
  terminate b
    (Mir.Syntax.Assert { cond = copy "_1"; expected = true; msg = "boom"; target = ok_blk });
  switch_to b ok_blk;
  terminate b Mir.Syntax.Return;
  let body = finish b in
  (match run_fn (unit_env [ body ]) "asrt" [ Mir.Value.bool true ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "assert true: %s" (Mir.Interp.error_to_string e));
  match run_fn (unit_env [ body ]) "asrt" [ Mir.Value.bool false ] with
  | Error (Mir.Interp.Assert_failed { msg; _ }) ->
      Alcotest.(check string) "assert message" "boom" msg
  | Ok _ -> Alcotest.fail "assert false should fail"
  | Error e -> Alcotest.failf "unexpected: %s" (Mir.Interp.error_to_string e)

(* Trusted pointers: a primitive returns a pointer whose store updates
   the abstract state; the MIR code writes through it. *)
let test_interp_trusted_ptr () =
  let trusted : int Mir.Value.trusted =
    {
      Mir.Value.tp_name = "cell";
      tp_load = (fun abs -> Ok (Mir.Value.int Mir.Ty.U64 abs));
      tp_store =
        (fun _abs v ->
          Result.map (fun (w, _) -> Mir.Word.to_int w) (Mir.Value.as_word v));
    }
  in
  let get_cell =
    {
      Mir.Interp.prim_name = "get_cell";
      prim_exec = (fun abs _ -> Ok (abs, Mir.Value.Ptr (Mir.Value.Trusted trusted)));
    }
  in
  let b = create ~name:"bump_cell" ~params:[] ~ret_ty:Mir.Ty.Unit in
  let p = temp b ~name:"p" (Mir.Ty.Raw (Mir.Ty.Int Mir.Ty.U64)) in
  let v = temp b ~name:"v" (Mir.Ty.Int Mir.Ty.U64) in
  let after = fresh_block b in
  terminate b (Mir.Syntax.Call { dest = pvar p; func = "get_cell"; args = []; target = Some after });
  switch_to b after;
  assign_var b v (Mir.Syntax.Use (Mir.Syntax.Copy (pderef (pvar p))));
  assign b (pderef (pvar p))
    (Mir.Syntax.Binary (Mir.Syntax.Add, copy v, cu64 100));
  terminate b Mir.Syntax.Return;
  let body = finish b in
  let env = Mir.Interp.env ~prims:[ get_cell ] (Mir.Syntax.program_of_bodies [ body ]) in
  match Mir.Interp.call env ~abs:7 ~mem:Mir.Mem.empty "bump_cell" [] with
  | Error e -> Alcotest.failf "trusted ptr: %s" (Mir.Interp.error_to_string e)
  | Ok o -> Alcotest.(check int) "abstract state updated" 107 o.Mir.Interp.abs

(* Temps never touch memory: running a purely-temp function leaves the
   object memory unchanged (Sec. 3.2 "Lifting Local Variables"). *)
let test_temps_no_memory_effect () =
  let env = unit_env [ body_tri () ] in
  match run_fn env "tri" [ u64v 20 ] with
  | Error e -> Alcotest.failf "tri: %s" (Mir.Interp.error_to_string e)
  | Ok o -> Alcotest.(check int) "memory untouched" 0 (Mir.Mem.cardinal o.Mir.Interp.mem)

let prop_tri_matches_formula =
  QCheck2.Test.make ~count:50 ~name:"interp loop equals closed form"
    (QCheck2.Gen.int_bound 200)
    (fun n ->
      let env = unit_env [ body_tri () ] in
      match run_fn env "tri" [ u64v n ] with
      | Error _ -> false
      | Ok o -> Mir.Value.equal o.Mir.Interp.ret (u64v (n * (n + 1) / 2)))

(* The exposed small-step machine agrees with the big-step driver:
   stepping manually to completion produces the same outcome and the
   same number of steps. *)
let test_small_step_agrees_with_call () =
  let env = unit_env [ body_add1 (); body_call_twice (); body_tri () ] in
  List.iter
    (fun (fn, args) ->
      let big =
        match Mir.Interp.call env ~abs:() ~mem:Mir.Mem.empty fn args with
        | Ok o -> o
        | Error e -> Alcotest.failf "call: %s" (Mir.Interp.error_to_string e)
      in
      let cfg0 =
        match Mir.Interp.start env ~abs:() ~mem:Mir.Mem.empty fn args with
        | Ok c -> c
        | Error e -> Alcotest.failf "start: %s" (Mir.Interp.error_to_string e)
      in
      let rec drive cfg n =
        if n > 1_000_000 then Alcotest.fail "manual stepping diverged"
        else
          match Mir.Interp.step cfg with
          | Ok (Mir.Interp.Finished o) -> o
          | Ok (Mir.Interp.Running cfg') -> drive cfg' (n + 1)
          | Error e -> Alcotest.failf "step: %s" (Mir.Interp.error_to_string e)
      in
      let small = drive cfg0 0 in
      Alcotest.(check bool) (fn ^ " same return") true
        (Mir.Value.equal big.Mir.Interp.ret small.Mir.Interp.ret);
      Alcotest.(check int) (fn ^ " same step count") big.Mir.Interp.steps
        small.Mir.Interp.steps)
    [ ("add1", [ u64v 4 ]); ("call_add1_twice", [ u64v 4 ]); ("tri", [ u64v 9 ]) ]

let test_config_introspection () =
  let env = unit_env [ body_add1 (); body_call_twice () ] in
  match Mir.Interp.start env ~abs:() ~mem:Mir.Mem.empty "call_add1_twice" [ u64v 1 ] with
  | Error e -> Alcotest.failf "start: %s" (Mir.Interp.error_to_string e)
  | Ok cfg ->
      Alcotest.(check int) "initial depth" 1 (Mir.Interp.config_depth cfg);
      Alcotest.(check (option string)) "initial fn" (Some "call_add1_twice")
        (Mir.Interp.config_function cfg);
      (* one step: the Call terminator pushes the callee *)
      (match Mir.Interp.step cfg with
      | Ok (Mir.Interp.Running cfg') ->
          Alcotest.(check int) "depth after call" 2 (Mir.Interp.config_depth cfg');
          Alcotest.(check (option string)) "callee on top" (Some "add1")
            (Mir.Interp.config_function cfg')
      | Ok (Mir.Interp.Finished _) -> Alcotest.fail "finished too early"
      | Error e -> Alcotest.failf "step: %s" (Mir.Interp.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)

let test_validate_catches_bad_jump () =
  let b = create ~name:"bad" ~params:[] ~ret_ty:Mir.Ty.Unit in
  terminate b (Mir.Syntax.Goto 99);
  let issues = Mir.Validate.check_body (finish b) in
  Alcotest.(check bool) "found issue" true (issues <> [])

let test_validate_catches_ref_of_temp () =
  let b = create ~name:"badref" ~params:[] ~ret_ty:Mir.Ty.Unit in
  let t = temp b (Mir.Ty.Int Mir.Ty.U64) in
  let p = temp b (Mir.Ty.Ref (Mir.Ty.Int Mir.Ty.U64)) in
  assign_var b t (Mir.Syntax.Use (cu64 1));
  assign_var b p (Mir.Syntax.Ref (pvar t));
  terminate b Mir.Syntax.Return;
  let issues = Mir.Validate.check_body (finish b) in
  Alcotest.(check bool) "address-of-temp flagged" true
    (List.exists (fun i -> contains i.Mir.Validate.detail "address of temporary") issues)

let test_validate_good_bodies () =
  List.iter
    (fun body ->
      match Mir.Validate.check_body body with
      | [] -> ()
      | issues ->
          Alcotest.failf "unexpected issues in %s: %s" body.Mir.Syntax.fname
            (String.concat "; "
               (List.map (fun i -> i.Mir.Validate.detail) issues)))
    [ body_add1 (); body_tri (); body_call_twice (); body_through_ptr () ]

let test_validate_program_calls () =
  let prog = Mir.Syntax.program_of_bodies [ body_call_twice () ] in
  let issues = Mir.Validate.check_program prog in
  Alcotest.(check bool) "missing callee flagged" true
    (List.exists (fun i -> contains i.Mir.Validate.detail "add1") issues);
  let prog2 = Mir.Syntax.program_of_bodies [ body_call_twice (); body_add1 () ] in
  Alcotest.(check int) "complete program clean" 0
    (List.length (Mir.Validate.check_program prog2))

(* ------------------------------------------------------------------ *)
(* Pretty printer round-trips through non-empty text                   *)

let test_pp_smoke () =
  let s = Mir.Pp.body_to_string (body_tri ()) in
  Alcotest.(check bool) "mentions switchInt" true (contains s "switchInt");
  Alcotest.(check bool) "mentions fn tri" true (contains s "fn tri")

(* One body holding every statement, rvalue, terminator, place
   projection and type former.  Its text is pinned line by line: the
   printer's bytes feed every body digest, and so the proof-cache keys. *)
let body_every_construct () =
  let open Mir.Syntax in
  let p ?(elems = []) var = { var; elems } in
  let u64 n = Const (Cint (n, Mir.Ty.U64)) in
  let local lname lty = { lname; lty; lkind = Klocal }
  and temp lname lty = { lname; lty; lkind = Ktemp } in
  {
    fname = "every";
    params = [ "a"; "s" ];
    locals =
      [
        temp "_0" Mir.Ty.Unit;
        local "a" (Mir.Ty.Int Mir.Ty.U64);
        temp "s"
          (Mir.Ty.Ref
             (Mir.Ty.Tuple [ Mir.Ty.Int Mir.Ty.U8; Mir.Ty.Array (Mir.Ty.Bool, 4) ]));
        temp "r" (Mir.Ty.Raw (Mir.Ty.Adt "Enclave"));
        temp "o" (Mir.Ty.Opaque "Frames");
      ];
    blocks =
      [|
        {
          stmts =
            [
              Storage_live "t";
              Assign (p "t", Use (Copy (p ~elems:[ Deref; Pfield 1; Pconst_index 2 ] "s")));
              Assign (p "u", Repeat (u64 0L, 4));
              Assign (p "v", Ref (p ~elems:[ Pindex "i" ] "arr"));
              Assign (p "w", Address_of (p "x"));
              Assign (p "n", Len (p "arr"));
              Assign (p "c", Cast (Move (p "a"), Mir.Ty.U8));
              Assign (p "d", Binary (Shl, Copy (p "a"), Const (Cint (-1L, Mir.Ty.I64))));
              Assign (p "e", Checked_binary (Add, Copy (p "a"), u64 1L));
              Assign (p "f", Unary (Not, Const (Cbool false)));
              Assign (p "g", Unary (Neg, Const Cunit));
              Assign (p "h", Discriminant (p ~elems:[ Downcast 1; Pfield 0 ] "en"));
              Assign (p "k", Aggregate (Agg_tuple, []));
              Assign (p "l", Aggregate (Agg_struct "S", [ u64 1L; Const (Cfn "f") ]));
              Assign (p "m", Aggregate (Agg_variant ("E", 2), [ u64 3L ]));
              Assign (p "q", Aggregate (Agg_array, [ u64 1L; u64 2L ]));
              Set_discriminant (p "en", 1);
              Storage_dead "t";
              Nop;
            ];
          term = Switch_int (Copy (p "a"), [ (0L, 1); (-1L, 2) ], 3);
        };
        {
          stmts = [];
          term =
            Call
              { dest = p "_0"; func = "callee"; args = [ Move (p "a"); u64 7L ];
                target = Some 2 };
        };
        {
          stmts = [];
          term =
            Assert
              {
                cond = Copy (p ~elems:[ Pfield 1 ] "e");
                expected = false;
                msg = "attempt to add with \"overflow\"\n";
                target = 3;
              };
        };
        { stmts = []; term = Drop (p "s", 4) };
        {
          stmts = [];
          term = Call { dest = p "_0"; func = "abort"; args = []; target = None };
        };
        { stmts = []; term = Switch_int (Copy (p "a"), [], 6) };
        { stmts = []; term = Unreachable };
        { stmts = [ Nop ]; term = Goto 8 };
        { stmts = []; term = Return };
      |];
  }

let every_construct_lines =
  [
    "fn every(a, s) {";
    "  let temp _0: ();";
    "  let local a: u64;";
    "  let temp s: &(u8, [bool; 4]);";
    "  let temp r: *mut Enclave;";
    "  let temp o: opaque<Frames>;";
    "  ";
    "  bb0: {";
    "    StorageLive(t);";
    "    t = *s.1[2];";
    "    u = [const 0_u64; 4];";
    "    v = &mut arr[i];";
    "    w = &raw mut x;";
    "    n = Len(arr);";
    "    c = move a as u8;";
    "    d = Shl(a, const 18446744073709551615_i64);";
    "    e = CheckedAdd(a, const 1_u64);";
    "    f = Not(const false);";
    "    g = Neg(const ());";
    "    h = discriminant(en as variant#1.0);";
    "    k = ();";
    "    l = S { const 1_u64, const fn f };";
    "    m = E::variant#2(const 3_u64);";
    "    q = [const 1_u64, const 2_u64];";
    "    discriminant(en) = 1;";
    "    StorageDead(t);";
    "    nop;";
    "    switchInt(a) -> [0: bb1, 18446744073709551615: bb2, otherwise: bb3];";
    "  }";
    "  bb1: {";
    "    _0 = callee(move a, const 7_u64) -> bb2;";
    "  }";
    "  bb2: {";
    "    assert(e.1 == false, \"attempt to add with \\\"overflow\\\"\\n\") -> bb3;";
    "  }";
    "  bb3: {";
    "    drop(s) -> bb4;";
    "  }";
    "  bb4: {";
    "    _0 = abort() -> diverge;";
    "  }";
    "  bb5: {";
    "    switchInt(a) -> [, otherwise: bb6];";
    "  }";
    "  bb6: {";
    "    unreachable;";
    "  }";
    "  bb7: {";
    "    nop;";
    "    goto -> bb8;";
    "  }";
    "  bb8: {";
    "    return;";
    "  }";
    "}";
  ]

let test_pp_every_construct () =
  Alcotest.(check (list string))
    "body text" every_construct_lines
    (String.split_on_char '\n' (Mir.Pp.body_to_string (body_every_construct ())))

(* bodies in name order, each ending in a newline, an empty line
   between two; an empty body keeps its indented empty line *)
let test_pp_program_layout () =
  let empty = { Mir.Syntax.fname = "empty"; params = []; locals = []; blocks = [||] } in
  Alcotest.(check (list string))
    "program text"
    ([ "fn empty() {"; "  "; "}"; "" ] @ every_construct_lines @ [ "" ])
    (String.split_on_char '\n'
       (Mir.Pp.program_to_string
          (Mir.Syntax.program_of_bodies [ body_every_construct (); empty ])));
  Alcotest.(check string) "no bodies" ""
    (Mir.Pp.program_to_string (Mir.Syntax.program_of_bodies []))

(* ------------------------------------------------------------------ *)
(* Compile: link tables                                                *)

(* fn f(x) -> u64 { p(x) + g(x) }, with [p] a primitive *)
let body_f () =
  let b = create ~name:"f" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  let from_p = temp b (Mir.Ty.Int Mir.Ty.U64) in
  let from_g = temp b (Mir.Ty.Int Mir.Ty.U64) in
  let after_p = fresh_block b in
  let after_g = fresh_block b in
  terminate b
    (Mir.Syntax.Call { dest = pvar from_p; func = "p"; args = [ copy "_1" ]; target = Some after_p });
  switch_to b after_p;
  terminate b
    (Mir.Syntax.Call { dest = pvar from_g; func = "g"; args = [ copy "_1" ]; target = Some after_g });
  switch_to b after_g;
  assign_var b "_0" (Mir.Syntax.Binary (Mir.Syntax.Add, copy from_p, copy from_g));
  terminate b Mir.Syntax.Return;
  finish b

(* fn g(x) -> u64 { x + 1 } *)
let body_g () =
  let b = create ~name:"g" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  assign_var b "_0" (Mir.Syntax.Binary (Mir.Syntax.Add, copy "_1", cu64 1));
  terminate b Mir.Syntax.Return;
  finish b

(* fn down(n) -> u64 { if n == 0 { p(n) } else { down(n - 1) } } *)
let body_down () =
  let b = create ~name:"down" ~params:[ ("_1", Mir.Ty.Int Mir.Ty.U64, Mir.Syntax.Ktemp) ]
      ~ret_ty:(Mir.Ty.Int Mir.Ty.U64)
  in
  let n1 = temp b (Mir.Ty.Int Mir.Ty.U64) in
  let base = fresh_block b in
  let step = fresh_block b in
  let ret = fresh_block b in
  terminate b (Mir.Syntax.Switch_int (copy "_1", [ (0L, base) ], step));
  switch_to b base;
  terminate b
    (Mir.Syntax.Call { dest = pvar "_0"; func = "p"; args = [ copy "_1" ]; target = Some ret });
  switch_to b step;
  assign_var b n1 (Mir.Syntax.Binary (Mir.Syntax.Sub, copy "_1", cu64 1));
  terminate b
    (Mir.Syntax.Call { dest = pvar "_0"; func = "down"; args = [ copy n1 ]; target = Some ret });
  switch_to b ret;
  terminate b Mir.Syntax.Return;
  finish b

(* One program compiled into environments that share a memo and differ
   only in the closure behind the primitive [p] and, when composed, in
   the stub linked over [g].  The memo hands every environment the same
   compiled bodies, and each must still call its own [p] and its own
   stub, also after another environment has been compiled. *)
let test_compile_links_own_env () =
  let program = Mir.Syntax.program_of_bodies [ body_f (); body_g (); body_down () ] in
  let env p_ret =
    Mir.Interp.env
      ~prims:[ { Mir.Interp.prim_name = "p"; prim_exec = (fun () _ -> Ok ((), u64v p_ret)) } ]
      program
  in
  let stub g_ret = { Mir.Compile.ov_name = "g"; ov_exec = (fun () _ _ -> Ok ((), u64v g_ret)) } in
  let cache = Mir.Compile.cache () in
  let returns what ct fn arg expected =
    expect_ret what (Mir.Compile.call ct ~abs:() ~mem:Mir.Mem.empty fn [ u64v arg ]) (u64v expected)
  in
  let a = Mir.Compile.compile ~cache (env 100) in
  returns "first" a "f" 5 106;
  let b = Mir.Compile.compile ~cache (env 200) in
  returns "second" b "f" 5 206;
  returns "first, after the second compiled" a "f" 5 106;
  returns "first, through recursion" a "down" 3 100;
  returns "second, through recursion" b "down" 3 200;
  let a' = Mir.Compile.compile ~cache ~overrides:[ stub 1000 ] (env 100) in
  let b' = Mir.Compile.compile ~cache ~overrides:[ stub 2000 ] (env 200) in
  returns "first composed" a' "f" 5 1100;
  returns "second composed" b' "f" 5 2200;
  returns "first composed, after the second compiled" a' "f" 5 1100;
  returns "first, after both composed compiled" a "f" 5 106

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "mir"
    [
      ( "word",
        [
          Alcotest.test_case "normalization" `Quick test_word_norm;
          Alcotest.test_case "bitfields" `Quick test_word_bitfields;
          Alcotest.test_case "unsigned division" `Quick test_word_unsigned_div;
          Alcotest.test_case "sign boundary" `Quick test_word_sign_boundary;
          Alcotest.test_case "to_hex" `Quick test_word_to_hex;
        ] );
      qsuite "word-props" [ prop_insert_extract ];
      ( "value",
        [
          Alcotest.test_case "project" `Quick test_value_project;
          Alcotest.test_case "update" `Quick test_value_update;
        ] );
      qsuite "value-props" [ prop_value_equal_refl ];
      ( "mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "undefined objects" `Quick test_mem_undefined;
        ] );
      qsuite "mem-props" [ prop_mem_frame_condition ];
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "checked ops" `Quick test_eval_checked;
          Alcotest.test_case "signed compare" `Quick test_eval_signed_compare;
        ] );
      ( "interp",
        [
          Alcotest.test_case "straight line" `Quick test_interp_add1;
          Alcotest.test_case "loop" `Quick test_interp_loop;
          Alcotest.test_case "nested calls" `Quick test_interp_calls;
          Alcotest.test_case "pointer to local" `Quick test_interp_through_ptr;
          Alcotest.test_case "rdata deref faults" `Quick test_interp_rdata_faults;
          Alcotest.test_case "out of fuel" `Quick test_interp_out_of_fuel;
          Alcotest.test_case "assert" `Quick test_interp_assert;
          Alcotest.test_case "trusted pointer" `Quick test_interp_trusted_ptr;
          Alcotest.test_case "temps leave memory alone" `Quick test_temps_no_memory_effect;
        ] );
      qsuite "interp-props" [ prop_tri_matches_formula ];
      ( "small-step",
        [
          Alcotest.test_case "agrees with big-step" `Quick test_small_step_agrees_with_call;
          Alcotest.test_case "config introspection" `Quick test_config_introspection;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad jump" `Quick test_validate_catches_bad_jump;
          Alcotest.test_case "ref of temp" `Quick test_validate_catches_ref_of_temp;
          Alcotest.test_case "good bodies" `Quick test_validate_good_bodies;
          Alcotest.test_case "program call targets" `Quick test_validate_program_calls;
        ] );
      ( "compile",
        [
          Alcotest.test_case "memoized body links through its own environment" `Quick
            test_compile_links_own_env;
        ] );
      ( "pp",
        [
          Alcotest.test_case "smoke" `Quick test_pp_smoke;
          Alcotest.test_case "every construct" `Quick test_pp_every_construct;
          Alcotest.test_case "program layout" `Quick test_pp_program_layout;
        ] );
    ]
