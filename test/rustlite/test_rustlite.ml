(* End-to-end tests for the Rustlite -> MIRlight pipeline: compile a
   program, run it under the MIR interpreter, observe results. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let compile src =
  match Rustlite.Pipeline.compile src with
  | Ok o -> o
  | Error msg -> Alcotest.failf "compile failed: %s" msg

let compile_err src =
  match Rustlite.Pipeline.compile src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error msg -> msg

let run ?(prims = []) (o : Rustlite.Pipeline.output) fn args =
  let env = Mir.Interp.env ~prims o.Rustlite.Pipeline.program in
  Mir.Interp.call env ~abs:() ~mem:Mir.Mem.empty fn args

let run_u64 ?prims o fn args =
  match run ?prims o fn (List.map (Mir.Value.word Mir.Ty.U64) args) with
  | Ok out -> (
      match out.Mir.Interp.ret with
      | Mir.Value.Int (w, _) -> w
      | v -> Alcotest.failf "expected integer result, got %s" (Mir.Value.to_string v))
  | Error e -> Alcotest.failf "run failed: %s" (Mir.Interp.error_to_string e)

let check_u64 what expected actual = Alcotest.(check int64) what expected actual

(* ------------------------------------------------------------------ *)
(* Lexer / parser units                                                *)

let test_lexer () =
  match Rustlite.Lexer.tokenize "fn f(x: u64) -> u64 { x + 0x1_F } // c" with
  | Error e -> Alcotest.fail e
  | Ok toks ->
      Alcotest.(check int) "token count" 15 (List.length toks);
      (match (List.nth toks 12).Rustlite.Token.tok with
      | Rustlite.Token.Int v -> Alcotest.(check int64) "hex literal" 0x1FL v
      | _ -> Alcotest.fail "expected int literal")

let test_lexer_errors () =
  (match Rustlite.Lexer.tokenize "let x = @;" with
  | Error msg -> Alcotest.(check bool) "bad char" true (contains msg "unexpected")
  | Ok _ -> Alcotest.fail "expected lex error");
  match Rustlite.Lexer.tokenize "/* unterminated" with
  | Error msg -> Alcotest.(check bool) "unterminated" true (contains msg "comment")
  | Ok _ -> Alcotest.fail "expected lex error"

let toks src =
  match Rustlite.Lexer.tokenize src with
  | Ok ts ->
      List.map (fun (t : Rustlite.Token.spanned) -> Rustlite.Token.to_string t.tok) ts
  | Error e -> Alcotest.failf "lex error on %S: %s" src e

(* each two-character token wins over its one-character prefix, and
   splits from it when a space or a third character intervenes *)
let test_lexer_punct_longest_match () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list string)) src (expected @ [ "<eof>" ]) (toks src))
    [
      ("::", [ "::" ]); (": :", [ ":"; ":" ]); (":::", [ "::"; ":" ]);
      ("->", [ "->" ]); ("- >", [ "-"; ">" ]); ("-->", [ "-"; "->" ]);
      ("=>", [ "=>" ]); ("==", [ "==" ]); ("= =", [ "="; "=" ]);
      ("==>", [ "=="; ">" ]); ("=>=", [ "=>"; "=" ]);
      ("<=", [ "<=" ]); ("<<", [ "<<" ]); ("<<=", [ "<<"; "=" ]);
      ("<=<", [ "<="; "<" ]); ("< <", [ "<"; "<" ]); ("<", [ "<" ]);
      (">>", [ ">>" ]); (">=", [ ">=" ]); (">>=", [ ">>"; "=" ]); (">", [ ">" ]);
      ("!=", [ "!=" ]); ("!!", [ "!"; "!" ]); ("&&", [ "&&" ]); ("&&&", [ "&&"; "&" ]);
      ("||", [ "||" ]); ("|", [ "|" ]);
      ( "(){}[],;.+*/%^",
        [ "("; ")"; "{"; "}"; "["; "]"; ","; ";"; "."; "+"; "*"; "/"; "%"; "^" ] );
      ("a<b", [ "a"; "<"; "b" ]); ("x/y", [ "x"; "/"; "y" ]);
    ]

(* a keyword is a whole word: a keyword prefix of a longer identifier
   stays an identifier *)
let test_lexer_keyword_prefixes () =
  let kinds src =
    match Rustlite.Lexer.tokenize src with
    | Ok ts ->
        List.filter_map
          (fun (t : Rustlite.Token.spanned) ->
            match t.tok with
            | Rustlite.Token.Kw k -> Some ("kw " ^ k)
            | Rustlite.Token.Ident i -> Some ("ident " ^ i)
            | _ -> None)
          ts
    | Error e -> Alcotest.failf "lex error on %S: %s" src e
  in
  Alcotest.(check (list string))
    "identifiers"
    [ "ident fnx"; "ident self_obj"; "ident u64x"; "ident letter"; "ident _fn";
      "ident iff"; "ident usize2"; "ident Self" ]
    (kinds "fnx self_obj u64x letter _fn iff usize2 Self");
  Alcotest.(check (list string))
    "keywords"
    [ "kw fn"; "kw self"; "kw u64"; "kw let"; "kw usize"; "kw bool"; "kw as" ]
    (kinds "fn self u64 let usize bool as")

(* token positions across lines, comments and nested block comments *)
let test_lexer_positions () =
  match Rustlite.Lexer.tokenize "fn a\n  // c ::\n  ::b /* x /* y */\n */ c\t->" with
  | Error e -> Alcotest.fail e
  | Ok ts ->
      Alcotest.(check (list (pair string (pair int int))))
        "tokens at line:col"
        [ ("fn", (1, 1)); ("a", (1, 4)); ("::", (3, 3)); ("b", (3, 5)); ("c", (4, 5));
          ("->", (4, 7)); ("<eof>", (4, 9)) ]
        (List.map
           (fun (t : Rustlite.Token.spanned) ->
             (Rustlite.Token.to_string t.tok, (t.pos.line, t.pos.col)))
           ts)

let test_lexer_error_text () =
  let err src =
    match Rustlite.Lexer.tokenize src with
    | Error e -> e
    | Ok _ -> Alcotest.failf "expected a lex error on %S" src
  in
  Alcotest.(check string) "first line" "lex error at 1:9: unexpected character '@'"
    (err "let x = @;");
  Alcotest.(check string) "later line" "lex error at 2:5: unexpected character '$'"
    (err "fn f() {\n  x $ y }");
  Alcotest.(check string) "control character"
    "lex error at 1:2: unexpected character '\\000'"
    (err "a\000")

(* MD5 of the MIRlight that mirlightgen prints for the memory module.
   Every body digest, and so every proof-cache key, is a digest of this
   text: a change to the front end or to the printer that moves one
   byte re-keys the cache. *)
let test_emit_memory_module_pinned () =
  List.iter
    (fun (geom, name, md5) ->
      let src = Hyperenclave.Mem_source.source (Hyperenclave.Layout.default geom) in
      Alcotest.(check string) name md5
        (Digest.to_hex (Digest.string (Rustlite.Pipeline.emit (compile src)))))
    [
      (Hyperenclave.Geometry.tiny, "tiny", "1f547c29c4108a0321f980b7b0080d12");
      (Hyperenclave.Geometry.x86_64, "x86_64", "f097ba43731c3a637c8aab44fb5a1f21");
    ]

let test_parser_precedence () =
  match Rustlite.Parser.parse_expr "1 + 2 * 3 == 7 && true" with
  | Error e -> Alcotest.fail e
  | Ok e -> (
      match e.Rustlite.Ast.e with
      | Rustlite.Ast.Ebin (Rustlite.Ast.Land, _, _) -> ()
      | _ -> Alcotest.fail "&& should bind loosest")

let test_parse_errors () =
  let msg = compile_err "fn f( { }" in
  Alcotest.(check bool) "parse error reported" true (contains msg "parse error")

(* ------------------------------------------------------------------ *)
(* Whole-program behaviour                                             *)

let test_arith_and_consts () =
  let o =
    compile
      {|
        const BASE: u64 = 0x100;
        fn f(x: u64) -> u64 { (x + BASE) * 2 - 1 }
      |}
  in
  check_u64 "f(1)" 0x201L (run_u64 o "f" [ 1L ])

let test_if_else () =
  let o =
    compile
      {|
        fn max(a: u64, b: u64) -> u64 {
          if a > b { return a; } else { return b; }
        }
        fn classify(x: u64) -> u64 {
          if x == 0 { 0; return 10; }
          else if x < 10 { return 20; }
          else { return 30; }
        }
      |}
  in
  check_u64 "max" 9L (run_u64 o "max" [ 3L; 9L ]);
  check_u64 "classify 0" 10L (run_u64 o "classify" [ 0L ]);
  check_u64 "classify 5" 20L (run_u64 o "classify" [ 5L ]);
  check_u64 "classify 50" 30L (run_u64 o "classify" [ 50L ])

let test_while_loop () =
  let o =
    compile
      {|
        fn sum_to(n: u64) -> u64 {
          let mut acc = 0;
          let mut i = 1;
          while i <= n {
            acc = acc + i;
            i = i + 1;
          }
          return acc;
        }
      |}
  in
  check_u64 "sum 10" 55L (run_u64 o "sum_to" [ 10L ]);
  check_u64 "sum 0" 0L (run_u64 o "sum_to" [ 0L ])

let test_loop_break_continue () =
  let o =
    compile
      {|
        fn first_multiple(step: u64, above: u64) -> u64 {
          let mut x = 0;
          loop {
            x = x + step;
            if x <= above { continue; }
            break;
          }
          return x;
        }
      |}
  in
  check_u64 "first multiple" 12L (run_u64 o "first_multiple" [ 4L; 10L ])

let test_short_circuit () =
  let o =
    compile
      {|
        fn guard(x: u64) -> u64 {
          /* division only runs when x != 0: && must short-circuit */
          if x != 0 && 100 / x > 5 { return 1; }
          return 0;
        }
      |}
  in
  check_u64 "guard 0 (no div)" 0L (run_u64 o "guard" [ 0L ]);
  check_u64 "guard 10" 1L (run_u64 o "guard" [ 10L ]);
  check_u64 "guard 50" 0L (run_u64 o "guard" [ 50L ])

let test_div_assert () =
  let o = compile "fn div(a: u64, b: u64) -> u64 { a / b }" in
  check_u64 "div ok" 4L (run_u64 o "div" [ 12L; 3L ]);
  match run o "div" [ Mir.Value.u64 1L; Mir.Value.u64 0L ] with
  | Error (Mir.Interp.Assert_failed { msg; _ }) ->
      Alcotest.(check bool) "rustc-style message" true (contains msg "divide by zero")
  | Ok _ -> Alcotest.fail "division by zero must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Mir.Interp.error_to_string e)

let test_structs_and_methods () =
  let o =
    compile
      {|
        struct Counter { count: u64, step: u64 }
        impl Counter {
          fn bump(&mut self) -> u64 {
            self.count = self.count + self.step;
            return self.count;
          }
          fn get(&self) -> u64 { self.count }
        }
        fn drive() -> u64 {
          let mut c = Counter { count: 0, step: 5 };
          c.bump();
          c.bump();
          let via_method = c.get();
          return via_method + c.count;
        }
      |}
  in
  check_u64 "methods mutate through self" 20L (run_u64 o "drive" [])

let test_references () =
  let o =
    compile
      {|
        fn set_to(p: &mut u64, v: u64) { *p = v; }
        fn main_like() -> u64 {
          let mut x = 1;
          set_to(&mut x, 42);
          return x;
        }
      |}
  in
  check_u64 "write through &mut param" 42L (run_u64 o "main_like" [])

let test_nested_struct () =
  let o =
    compile
      {|
        struct Inner { v: u64 }
        struct Outer { a: Inner, b: Inner }
        fn swap_like() -> u64 {
          let mut o = Outer { a: Inner { v: 1 }, b: Inner { v: 2 } };
          o.a.v = o.b.v + 10;
          return o.a.v * 100 + o.b.v;
        }
      |}
  in
  check_u64 "nested field updates" 1202L (run_u64 o "swap_like" [])

let test_externs_as_prims () =
  let o =
    compile
      {|
        extern fn read_cell() -> u64;
        extern fn write_cell(v: u64);
        fn bump_by(n: u64) -> u64 {
          let v = read_cell();
          write_cell(v + n);
          return read_cell();
        }
      |}
  in
  Alcotest.(check (list string)) "externs listed" [ "read_cell"; "write_cell" ]
    (List.sort String.compare o.Rustlite.Pipeline.externs);
  let prims =
    [
      {
        Mir.Interp.prim_name = "read_cell";
        prim_exec = (fun abs _ -> Ok (abs, Mir.Value.word Mir.Ty.U64 (Int64.of_int abs)));
      };
      {
        Mir.Interp.prim_name = "write_cell";
        prim_exec =
          (fun _abs args ->
            match args with
            | [ Mir.Value.Int (w, _) ] -> Ok (Int64.to_int w, Mir.Value.Unit)
            | _ -> Error "bad args");
      };
    ]
  in
  let env = Mir.Interp.env ~prims o.Rustlite.Pipeline.program in
  match Mir.Interp.call env ~abs:5 ~mem:Mir.Mem.empty "bump_by" [ Mir.Value.u64 3L ] with
  | Ok out ->
      Alcotest.(check int) "abstract state" 8 out.Mir.Interp.abs;
      Alcotest.(check bool) "returned new value" true
        (Mir.Value.equal out.Mir.Interp.ret (Mir.Value.u64 8L))
  | Error e -> Alcotest.failf "run: %s" (Mir.Interp.error_to_string e)

let test_shadowing () =
  let o =
    compile
      {|
        fn f() -> u64 {
          let x = 1;
          let x = x + 10;
          let x = x * 2;
          return x;
        }
      |}
  in
  check_u64 "shadowed lets" 22L (run_u64 o "f" [])

let test_addr_taken_classification () =
  let o =
    compile
      {|
        fn f() -> u64 {
          let mut target = 0;   // address taken: must be a local
          let pure = 5;         // never referenced: stays a temp
          let p = &mut target;
          *p = pure;
          return target;
        }
      |}
  in
  (match Mir.Syntax.find_body o.Rustlite.Pipeline.program "f" with
  | None -> Alcotest.fail "body missing"
  | Some body ->
      Alcotest.(check (option bool)) "target is local" (Some true)
        (Option.map (fun k -> k = Mir.Syntax.Klocal) (Mir.Syntax.local_kind_of body "target"));
      Alcotest.(check (option bool)) "pure is temp" (Some true)
        (Option.map (fun k -> k = Mir.Syntax.Ktemp) (Mir.Syntax.local_kind_of body "pure")));
  check_u64 "behaviour" 5L (run_u64 o "f" [])

let test_casts_and_bools () =
  let o =
    compile
      {|
        fn f(a: u64, b: u64) -> u64 {
          let c = a < b;
          let d = !(a == b);
          (c as u64) * 10 + (d as u64)
        }
      |}
  in
  check_u64 "bools to ints" 11L (run_u64 o "f" [ 1L; 2L ]);
  check_u64 "equal case" 0L (run_u64 o "f" [ 2L; 2L ])

let test_type_errors () =
  let cases =
    [
      ("fn f() -> u64 { true }", "return");
      ("fn f() -> u64 { g() }", "unknown function");
      ("fn f() -> u64 { let x: bool = 1; 0 }", "initialized with");
      ("fn f() -> u64 { 1 + true }", "expects u64");
      ("fn f() -> u64 { let x = 1; x.foo }", "struct");
      ("struct S { a: u64 } fn f() -> u64 { let s = S { }; 0 }", "fields");
      ("fn f() -> u64 { break; 0 }", "loop");
      ("fn f() -> u64 { let y = &1; 0 }", "temporary");
    ]
  in
  List.iter
    (fun (src, expect) ->
      let msg = compile_err src in
      if not (contains msg expect) then
        Alcotest.failf "wrong error for %s: %s (expected ...%s...)" src msg expect)
    cases

let test_mutability_enforced () =
  let msg = compile_err "fn f() { let x = 1; x = 2; }" in
  Alcotest.(check bool) "immutable assignment rejected" true
    (contains msg "immutable")

let test_enums_and_match () =
  let o =
    compile
      {|
        enum Shape { Point, Line(u64), Rect(u64, u64) }

        fn area(kind: u64, a: u64, b: u64) -> u64 {
          let s = make(kind, a, b);
          let mut out = 0;
          match s {
            Shape::Point => { out = 0; }
            Shape::Line(len) => { out = len; }
            Shape::Rect(w, h) => { out = w * h; }
          }
          out
        }

        fn make(kind: u64, a: u64, b: u64) -> Shape {
          if kind == 0 { return Shape::Point; }
          if kind == 1 { return Shape::Line(a); }
          Shape::Rect(a, b)
        }

        fn wild(kind: u64) -> u64 {
          let s = make(kind, 3, 4);
          let mut out = 100;
          match s {
            Shape::Point => { out = 0; }
            _ => { out = 7; }
          }
          out
        }
      |}
  in
  check_u64 "point" 0L (run_u64 o "area" [ 0L; 9L; 9L ]);
  check_u64 "line" 9L (run_u64 o "area" [ 1L; 9L; 9L ]);
  check_u64 "rect" 12L (run_u64 o "area" [ 2L; 3L; 4L ]);
  check_u64 "wildcard hit" 0L (run_u64 o "wild" [ 0L ]);
  check_u64 "wildcard fallthrough" 7L (run_u64 o "wild" [ 2L ]);
  (* the generated MIR uses discriminant + switchInt, like rustc *)
  let mir = Rustlite.Pipeline.emit o in
  Alcotest.(check bool) "discriminant emitted" true (contains mir "discriminant");
  Alcotest.(check bool) "downcast emitted" true (contains mir "variant#")

let test_match_static_errors () =
  let cases =
    [
      (* non-exhaustive *)
      ( {| enum E { A, B } fn f(e: E) -> u64 { match e { E::A => { return 1; } } 0 } |},
        "non-exhaustive" );
      (* wrong arity *)
      ( {| enum E { A(u64) } fn f(e: E) -> u64 { match e { E::A => { return 1; } } 0 } |},
        "binds" );
      (* wrong enum in pattern *)
      ( {| enum E { A } enum F { B } fn f(e: E) -> u64 { match e { F::B => { return 1; } } 0 } |},
        "scrutinee" );
      (* duplicate arm *)
      ( {| enum E { A, B } fn f(e: E) -> u64 { match e { E::A => { return 1; } E::A => { return 2; } _ => { return 3; } } 0 } |},
        "duplicate" );
      (* match on non-enum *)
      ( {| fn f(x: u64) -> u64 { match x { _ => { return 1; } } 0 } |},
        "non-enum" );
      (* field access on enum *)
      ( {| enum E { A } fn f(e: E) -> u64 { e.x } |}, "enum" );
    ]
  in
  List.iter
    (fun (src, expect) ->
      let msg = compile_err src in
      if not (contains msg expect) then
        Alcotest.failf "wrong error: %s (expected ...%s...)" msg expect)
    cases

let test_overflow_checks_mode () =
  let src = "fn f(a: u64, b: u64) -> u64 { a + b }" in
  (* release mode wraps *)
  let o = compile src in
  check_u64 "wrapping add" 5L (run_u64 o "f" [ 0xFFFF_FFFF_FFFF_FFFFL; 6L ]);
  (* debug mode traps, rustc-style *)
  match Rustlite.Pipeline.compile ~overflow_checks:true src with
  | Error msg -> Alcotest.failf "debug compile failed: %s" msg
  | Ok o -> (
      check_u64 "in-range add still works" 9L (run_u64 o "f" [ 4L; 5L ]);
      match run o "f" [ Mir.Value.u64 0xFFFF_FFFF_FFFF_FFFFL; Mir.Value.u64 6L ] with
      | Error (Mir.Interp.Assert_failed { msg; _ }) ->
          Alcotest.(check bool) "overflow message" true (contains msg "overflow")
      | Ok _ -> Alcotest.fail "overflow must trap in debug mode"
      | Error e -> Alcotest.failf "wrong error: %s" (Mir.Interp.error_to_string e))

let test_emit_mir_format () =
  let o = compile "fn f(x: u64) -> u64 { x + 1 }" in
  let s = Rustlite.Pipeline.emit o in
  Alcotest.(check bool) "has fn header" true (contains s "fn f");
  Alcotest.(check bool) "has Add" true (contains s "Add");
  Alcotest.(check bool) "has return" true (contains s "return;")

(* Compiled functions that never take an address must leave object
   memory untouched (the temp-lifting guarantee of Sec. 3.2). *)
let test_pure_functions_no_memory () =
  let o =
    compile
      {|
        fn collatz_steps(n0: u64) -> u64 {
          let mut n = n0;
          let mut steps = 0;
          while n != 1 {
            if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
            steps = steps + 1;
          }
          return steps;
        }
      |}
  in
  let env = Mir.Interp.env ~prims:[] o.Rustlite.Pipeline.program in
  match Mir.Interp.call env ~abs:() ~mem:Mir.Mem.empty "collatz_steps" [ Mir.Value.u64 27L ] with
  | Ok out ->
      Alcotest.(check bool) "collatz(27) = 111 steps" true
        (Mir.Value.equal out.Mir.Interp.ret (Mir.Value.u64 111L));
      Alcotest.(check int) "no memory objects" 0 (Mir.Mem.cardinal out.Mir.Interp.mem)
  | Error e -> Alcotest.failf "run: %s" (Mir.Interp.error_to_string e)

let prop_sum_matches_formula =
  QCheck2.Test.make ~count:50 ~name:"compiled loop equals closed form"
    (QCheck2.Gen.int_bound 500)
    (fun n ->
      let o =
        compile
          {|
            fn sum_to(n: u64) -> u64 {
              let mut acc = 0;
              let mut i = 1;
              while i <= n { acc = acc + i; i = i + 1; }
              return acc;
            }
          |}
      in
      Int64.equal (run_u64 o "sum_to" [ Int64.of_int n ])
        (Int64.of_int (n * (n + 1) / 2)))

let () =
  Alcotest.run "rustlite"
    [
      ( "frontend",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
          Alcotest.test_case "lexer punctuation longest match" `Quick
            test_lexer_punct_longest_match;
          Alcotest.test_case "lexer keyword prefixes" `Quick test_lexer_keyword_prefixes;
          Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
          Alcotest.test_case "lexer error text" `Quick test_lexer_error_text;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "arith and consts" `Quick test_arith_and_consts;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "loop/break/continue" `Quick test_loop_break_continue;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "div assert" `Quick test_div_assert;
          Alcotest.test_case "structs and methods" `Quick test_structs_and_methods;
          Alcotest.test_case "references" `Quick test_references;
          Alcotest.test_case "nested structs" `Quick test_nested_struct;
          Alcotest.test_case "externs" `Quick test_externs_as_prims;
          Alcotest.test_case "shadowing" `Quick test_shadowing;
          Alcotest.test_case "casts and bools" `Quick test_casts_and_bools;
          Alcotest.test_case "pure functions leave memory alone" `Quick
            test_pure_functions_no_memory;
        ] );
      ( "static-analysis",
        [
          Alcotest.test_case "address-taken classification" `Quick
            test_addr_taken_classification;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "mutability" `Quick test_mutability_enforced;
          Alcotest.test_case "enums and match" `Quick test_enums_and_match;
          Alcotest.test_case "match static errors" `Quick test_match_static_errors;
          Alcotest.test_case "overflow checks mode" `Quick test_overflow_checks_mode;
          Alcotest.test_case "emit format" `Quick test_emit_mir_format;
          Alcotest.test_case "memory module emit pinned" `Quick
            test_emit_memory_module_pinned;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_sum_matches_formula ]);
    ]
