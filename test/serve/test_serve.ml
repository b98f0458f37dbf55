(* Tests of the verification service (lib/serve): wire framing
   round-trips under torn and oversized input, the Jsonx parser the
   protocol rides on, request decoding and validation, a seeded fuzzer
   over deframing, parsing and decoding (with a grammar oracle for
   number literals) and over the CLI's kind lists, determinism of
   daemon responses against repeat evaluation (stdout byte-identical,
   summaries identical through the deterministic projection), the L0
   response-replay lifecycle, a live heap that stays flat across
   distinct requests, the cross-process proof-cache sharing path (packs
   appearing mid-scan, advisory-locked concurrent flushes), the
   dispatcher's re-send of a dead worker's request ahead of later ones,
   and daemons over a real Unix socket: end to end, a max-size frame
   through the worker pipe, concurrent distinct requests queued behind
   the one worker, and bounded respawns of a worker that dies at
   start-up. *)

module Jsonx = Engine.Jsonx
module Protocol = Serve.Protocol
module Driver = Serve.Driver
module Summary = Serve.Summary
module Server = Serve.Server
module Client = Serve.Client
module Obligation = Engine.Obligation
module Cache = Engine.Cache
module Plan = Engine.Plan
module Report = Mirverif.Report

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mirverif-serve-test-%d-%d" (Unix.getpid ()) !n)

let pass_obl ?(phase = "test") ?(deps = []) ?(fingerprint = "fp") id =
  Obligation.v ~id ~phase ~deps ~fingerprint (fun () ->
      Obligation.outcome [ Report.add_pass (Report.empty id) ])

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)

let drain_frames reader =
  let rec go acc =
    match Protocol.Reader.next reader with
    | `Frame p -> go (p :: acc)
    | `More -> List.rev acc
    | `Oversized n -> Alcotest.failf "unexpected oversized (%d)" n
  in
  go []

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 255 'a'; String.make 70_000 '\x00'; "{\"op\":\"ping\"}" ] in
  let wire = String.concat "" (List.map Protocol.frame payloads) in
  let reader = Protocol.Reader.create () in
  Protocol.Reader.feed reader wire;
  Alcotest.(check (list string)) "all frames recovered in order" payloads
    (drain_frames reader)

let test_frame_torn_feed () =
  (* one byte at a time: every prefix is a legal torn read *)
  let payloads = [ "alpha"; ""; "beta{}" ] in
  let wire = String.concat "" (List.map Protocol.frame payloads) in
  let reader = Protocol.Reader.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      Protocol.Reader.feed reader (String.make 1 c);
      out := !out @ drain_frames reader)
    wire;
  Alcotest.(check (list string)) "torn feed reassembles" payloads !out

let test_frame_oversized () =
  let n = Protocol.max_frame + 1 in
  let hdr =
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  in
  let reader = Protocol.Reader.create () in
  Protocol.Reader.feed reader hdr;
  (match Protocol.Reader.next reader with
  | `Oversized m -> Alcotest.(check int) "announced size" n m
  | `Frame _ | `More -> Alcotest.fail "oversized header not rejected");
  match Protocol.frame (String.make 1 'x') with
  | (_ : string) -> (
      match Protocol.frame (String.make (Protocol.max_frame + 1) 'x') with
      | (_ : string) -> Alcotest.fail "frame accepted an oversized payload"
      | exception Invalid_argument _ -> ())

(* Deframing costs time linear in a frame's size, however many pieces it
   arrives in: a max-size frame fed in 1 KiB pieces, as a slow client
   sends it, comes out byte-identical within a second.  When each piece
   was appended to a string of everything buffered so far, this took
   3.7-3.8 s on a 2-vCPU Intel Xeon VM. *)
let test_framing () =
  let payload = String.init Protocol.max_frame (fun i -> Char.chr (Hashtbl.hash i land 0xff)) in
  let wire = Protocol.frame payload in
  let reader = Protocol.Reader.create () in
  let t0 = Unix.gettimeofday () in
  let rec feed off acc =
    if off >= String.length wire then acc
    else
      let n = min 1024 (String.length wire - off) in
      Protocol.Reader.feed reader (String.sub wire off n);
      feed (off + n) (List.rev_append (drain_frames reader) acc)
  in
  let frames = feed 0 [] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list int)) "one frame of max_frame bytes" [ Protocol.max_frame ]
    (List.map String.length frames);
  Alcotest.(check bool) "byte-identical" true (List.hd frames = payload);
  if elapsed >= 1.0 then Alcotest.failf "deframing took %.2f s" elapsed

let test_blocking_read_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Protocol.write_frame a "hello";
  (match Protocol.read_frame b with
  | Ok (Some p) -> Alcotest.(check string) "payload" "hello" p
  | Ok None | Error _ -> Alcotest.fail "expected a frame");
  (* EOF exactly at a frame boundary is a clean close *)
  Unix.close a;
  (match Protocol.read_frame b with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "expected clean EOF");
  Unix.close b;
  (* EOF mid-frame is Closed *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let partial = String.sub (Protocol.frame "payload") 0 6 in
  let n = Unix.write_substring a partial 0 (String.length partial) in
  Alcotest.(check int) "partial written" 6 n;
  Unix.close a;
  (match Protocol.read_frame b with
  | exception Protocol.Closed -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Closed mid-frame");
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Jsonx parsing                                                       *)

let test_jsonx_roundtrip () =
  let j =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "a\"b\\c\nd\te\x01");
        ("i", Jsonx.Int (-42));
        ("big", Jsonx.Int max_int);
        ("f", Jsonx.Float 1.5);
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Str ""; Jsonx.Obj []; Jsonx.List [] ]);
      ]
  in
  match Jsonx.parse (Jsonx.to_string j) with
  | Ok back -> Alcotest.(check bool) "structurally equal" true (j = back)
  | Error msg -> Alcotest.fail msg

let test_jsonx_escapes () =
  (match Jsonx.parse {|"A\n\"\\\/ é"|} with
  | Ok (Jsonx.Str s) -> Alcotest.(check string) "escapes" "A\n\"\\/ \xc3\xa9" s
  | _ -> Alcotest.fail "escape parse failed");
  match Jsonx.parse {|"😀"|} with
  | Ok (Jsonx.Str s) -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate parse failed"

let test_jsonx_numbers () =
  (match Jsonx.parse "3" with
  | Ok (Jsonx.Int 3) -> ()
  | _ -> Alcotest.fail "int");
  (match Jsonx.parse "3.5" with
  | Ok (Jsonx.Float f) -> Alcotest.(check (float 0.0)) "float" 3.5 f
  | _ -> Alcotest.fail "float");
  (match Jsonx.parse "1e3" with
  | Ok (Jsonx.Float f) -> Alcotest.(check (float 0.0)) "exponent" 1000.0 f
  | _ -> Alcotest.fail "exponent");
  List.iter
    (fun (text, want) ->
      match Jsonx.parse text with
      | Ok got -> Alcotest.(check bool) text true (got = want)
      | Error msg -> Alcotest.failf "%s refused: %s" text msg)
    [
      ("0", Jsonx.Int 0);
      ("-0", Jsonx.Int 0);
      ("1E+2", Jsonx.Float 100.);
      ("-1.5e-3", Jsonx.Float (-1.5e-3));
      ("[0,-7]", Jsonx.List [ Jsonx.Int 0; Jsonx.Int (-7) ]);
      ("9223372036854775808", Jsonx.Float 9223372036854775808.);
    ]

(* Texts that OCaml's [of_string] functions take but RFC 8259 does not:
   a number with an empty fraction or integer part or a leading zero,
   a [\u] escape whose four characters are not all hex digits, and a
   string holding a raw control character (a newline, a tab, a NUL,
   U+0001), which must be escaped. *)
let test_jsonx_not_json () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted non-JSON %S" s)
    [ "1."; "-.5"; "01"; "1.e3"; "-"; "1e"; "1e+"; ".5"; "+1"; "0x1f"; "1_000";
      "[01]"; {|{"a":1.}|}; {|"\u1_23"|}; {|"\u+123"|}; {|"\u12 3"|};
      "\"a\nb\""; "\"a\tb\""; "\"a\000b\""; "{\"op\":\"ping\x01\"}" ];
  Alcotest.(check (result reject string)) "the error names the byte"
    (Error {|json parse error at byte 2: unescaped control character '\n'|})
    (Jsonx.parse "\"a\nb\"")

let test_jsonx_errors () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ "{"; "[1,]"; "\"unterminated"; "nul"; "{} trailing"; "{\"a\" 1}"; "" ]

let test_jsonx_depth () =
  (* realistic nesting parses... *)
  let nested d = String.make d '[' ^ "0" ^ String.make d ']' in
  (match Jsonx.parse (nested 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected 100-deep nesting: %s" msg);
  (* ...but adversarial depth is an Error, not a Stack_overflow that
     would escape the daemon's per-request handling and kill it *)
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted pathological nesting"
      | exception _ -> Alcotest.fail "pathological nesting raised")
    [
      String.make 500_000 '[';
      nested 10_000;
      String.concat "" (List.init 10_000 (fun _ -> "{\"k\":[")) ^ "0";
    ]

(* ------------------------------------------------------------------ *)
(* Request decode                                                      *)

(* An empty request decodes to the defaults; so does one that carries
   only the retired "overrides" field, which is ignored like any other
   unknown key. *)
let test_request_defaults () =
  List.iter
    (fun payload ->
      match Driver.request_of_string payload with
      | Ok r -> Alcotest.(check bool) payload true (r = Driver.default_request)
      | Error msg -> Alcotest.fail msg)
    [ "{}"; {|{"overrides":false}|}; {|{"overrides":true}|} ]

let test_request_roundtrip () =
  let r =
    {
      Driver.default_request with
      Driver.geometry = "x86_64";
      seed = 7;
      quick = true;
      mc =
        Some { Driver.mc_depth = 4; mc_geometry = "tiny3"; mc_buggy_tlb = true };
      source_digest = Some "abc";
    }
  in
  match Driver.request_of_string (Jsonx.to_string (Driver.json_of_request r)) with
  | Ok back -> Alcotest.(check bool) "round trips" true (r = back)
  | Error msg -> Alcotest.fail msg

let test_request_validation () =
  List.iter
    (fun s ->
      match Driver.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid request %s" s)
    [
      {|{"op":"frobnicate"}|};
      {|{"geometry":"riscv"}|};
      {|{"lints":"no-such-lint"}|};
      {|{"seed":"high"}|};
      {|{"model_check":{"depth":0}}|};
      {|{"model_check":{"depth":3,"geometry":"x86_64"}}|};
      "not json at all";
    ];
  (* the retired "por" member is ignored like any unknown one *)
  Alcotest.(check bool) "a request with \"por\" decodes as one without" true
    (Driver.request_of_string {|{"model_check":{"depth":3,"por":false}}|}
    = Driver.request_of_string {|{"model_check":{"depth":3}}|})

(* ------------------------------------------------------------------ *)
(* Fuzzing the wire boundary                                           *)

(* Seeded QCheck properties over what a client can put on the wire:
   deframing, JSON parsing and request decoding must answer any input
   with a frame, a value or an [Error], never an exception.  Number
   literals are also checked against an independent oracle, a regular
   expression of RFC 8259's grammar, and the kind lists of [--faults]
   and [--lints] (the wire's "lints" too) must round-trip. *)

module G = QCheck2.Gen

let fuzz_seed = 20241

let fuzz ~name ~count ~print gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| fuzz_seed |])
    (QCheck2.Test.make ~name ~count ~print gen prop)

let print_bytes = Printf.sprintf "%S"

(* bytes, with small length headers now and then: uniformly random
   headers almost all announce more than [max_frame] *)
let gen_wire =
  let small_header =
    G.map (fun n -> String.sub (Protocol.frame (String.make n 'x')) 0 4) (G.int_bound 40)
  in
  G.map (String.concat "")
    (G.list_size (G.int_bound 8)
       (G.frequency [ (3, G.string_size (G.int_bound 40)); (1, small_header) ]))

(* [wire] cut into consecutive pieces at random offsets *)
let gen_chunked wire =
  G.map
    (fun cuts ->
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (String.length wire + 1)) cuts) in
      let rec split prev = function
        | [] -> [ String.sub wire prev (String.length wire - prev) ]
        | c :: rest -> String.sub wire prev (c - prev) :: split c rest
      in
      split 0 cuts)
    (G.list_size (G.int_bound 10) G.nat)

(* Feed the chunks in turn, draining the reader after each; stop at the
   first [`Oversized] (the stream is closed there).  Returns the frames
   and whether the stream was refused. *)
let deframe chunks =
  let r = Protocol.Reader.create () in
  let rec drain acc =
    match Protocol.Reader.next r with
    | `Frame p -> drain (p :: acc)
    | `More -> Ok acc
    | `Oversized n -> Error (n, acc)
  in
  let rec go acc = function
    | [] -> (List.rev acc, false)
    | c :: rest -> (
        Protocol.Reader.feed r c;
        match drain acc with Ok acc -> go acc rest | Error (_, acc) -> (List.rev acc, true))
  in
  go [] chunks

let prop_reader_random_bytes =
  fuzz ~name:"reader: random bytes in random chunks" ~count:500
    ~print:(QCheck2.Print.list print_bytes)
    G.(gen_wire >>= gen_chunked)
    (fun chunks ->
      let frames, _ = deframe chunks in
      List.for_all (fun p -> String.length p <= Protocol.max_frame) frames)

let prop_frames_any_chunking =
  let gen =
    G.(list_size (int_bound 6) (string_size (int_bound 60)) >>= fun payloads ->
       map (fun chunks -> (payloads, chunks))
         (gen_chunked (String.concat "" (List.map Protocol.frame payloads))))
  in
  fuzz ~name:"reader: frames whole and in order" ~count:500
    ~print:(fun (ps, cs) ->
      Printf.sprintf "payloads %s, chunks %s"
        (QCheck2.Print.list print_bytes ps) (QCheck2.Print.list print_bytes cs))
    gen
    (fun (payloads, chunks) -> deframe chunks = (payloads, false))

(* request texts a client might send, valid ones included *)
let request_texts =
  List.map
    (fun r -> Jsonx.to_string (Driver.json_of_request r))
    [
      Driver.default_request;
      { Driver.default_request with Driver.geometry = "x86_64"; seed = 7; quick = true };
      {
        Driver.default_request with
        Driver.mc =
          Some
            { Driver.mc_depth = 5; mc_geometry = "tiny3"; mc_buggy_tlb = true };
        source_digest = Some "0123456789abcdef";
      };
    ]
  @ [ {|{"op":"verify","lints":"body,alias","seed":-1}|}; {|{"model_check":{"depth":3}}|} ]

(* Damage a text the way a fuzzer would: a byte replaced, a piece
   inserted, or the tail cut off. *)
let flip s =
  G.map2
    (fun i c ->
      if s = "" then s
      else String.mapi (fun j c' -> if j = i mod String.length s then c else c') s)
    G.nat G.char

let insert pieces s =
  G.map2
    (fun i piece ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i))
    G.nat (G.oneofl pieces)

let truncate s = G.map (fun i -> String.sub s 0 (i mod (String.length s + 1))) G.nat

(* one to [n] damages in a row *)
let mutated ~n mutate gen =
  let rec mutations k s = if k = 0 then G.pure s else G.(mutate s >>= mutations (k - 1)) in
  G.(pair gen (int_range 1 n) >>= fun (s, k) -> mutations k s)

(* a request text damaged the way a fuzzer would: byte flips, inserted
   JSON punctuation, truncation, and deep nesting *)
let gen_mutated =
  let insert =
    insert [ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u"; "\\ud800"; "-"; "1e999"; "null" ]
  in
  let nest s =
    G.map2
      (fun depth obj ->
        let o, c = if obj then ({|{"op":|}, "}") else ("[", "]") in
        String.concat "" (List.init depth (fun _ -> o)) ^ s ^ String.concat "" (List.init depth (fun _ -> c)))
      (G.int_range 1 2000) G.bool
  in
  mutated ~n:4
    (fun s -> G.oneof [ flip s; insert s; truncate s; nest s ])
    (G.oneofl request_texts)

let gen_text = G.(frequency [ (1, string_size (int_bound 80)); (3, gen_mutated) ])

let prop_json_parse_total =
  fuzz ~name:"jsonx: parse never raises" ~count:1000 ~print:print_bytes gen_text (fun s ->
      match Jsonx.parse s with Ok _ | Error _ -> true)

let prop_request_decode_total =
  fuzz ~name:"driver: request decode never raises" ~count:1000 ~print:print_bytes gen_text
    (fun s -> match Driver.request_of_string s with Ok _ | Error _ -> true)

(* RFC 8259's number grammar, written as a regular expression: the
   oracle shares nothing with the parser's hand-written scan *)
let json_number =
  Str.regexp "-?\\(0\\|[1-9][0-9]*\\)\\(\\.[0-9]+\\)?\\([eE][-+]?[0-9]+\\)?$"

let is_json_number s = Str.string_match json_number s 0

(* number literals drawn from the grammar, then damaged with the
   characters a number scan meets; no whitespace, so a text is a JSON
   number exactly when it matches the grammar *)
let gen_number =
  (* a digit from [lo] to 9, then up to [n] more digits *)
  let digits lo n =
    G.map2
      (fun d ds -> String.make 1 d ^ ds)
      (G.char_range lo '9')
      (G.string_size ~gen:(G.char_range '0' '9') (G.int_bound n))
  in
  let opt g = G.(oneof [ pure ""; g ]) in
  let literal =
    G.map4
      (fun sign int frac exp -> sign ^ int ^ frac ^ exp)
      (G.oneofl [ ""; "-" ])
      (G.oneof [ G.pure "0"; digits '1' 20 ])
      (opt (G.map (( ^ ) ".") (digits '0' 4)))
      (opt (G.map3 (fun e sign ds -> e ^ sign ^ ds) (G.oneofl [ "e"; "E" ])
              (G.oneofl [ ""; "+"; "-" ]) (digits '0' 3)))
  in
  let pieces = [ "0"; "1"; "9"; "-"; "+"; "."; "e"; "E"; "_"; "x" ] in
  let drop s =
    G.map
      (fun i ->
        if s = "" then s
        else
          let i = i mod String.length s in
          String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1))
      G.nat
  in
  G.frequency
    [ (1, literal);
      (3, mutated ~n:3 (fun s -> G.oneof [ insert pieces s; drop s; truncate s ]) literal) ]

let prop_json_number_grammar =
  fuzz ~name:"jsonx: a number parses iff it matches the grammar" ~count:2000
    ~print:print_bytes gen_number (fun s ->
      let number = function Jsonx.Int _ | Jsonx.Float _ -> true | _ -> false in
      let alone = match Jsonx.parse s with Ok j -> number j | Error _ -> false in
      let in_list =
        match Jsonx.parse ("[" ^ s ^ ",1]") with
        | Ok (Jsonx.List [ j; Jsonx.Int 1 ]) -> number j
        | _ -> false
      in
      alone = is_json_number s && in_list = is_json_number s)

let prop_json_string_emit =
  fuzz ~name:"jsonx: every string emitted parses back" ~count:1000 ~print:print_bytes
    (G.string_size ~gen:G.char (G.int_bound 80))
    (fun s -> Jsonx.parse (Jsonx.to_string (Jsonx.Str s)) = Ok (Jsonx.Str s))

let prop_json_float_emit =
  fuzz ~name:"jsonx: every finite float emitted parses back" ~count:1000
    ~print:string_of_float
    G.(oneof [ float; map2 Float.ldexp (float_range (-1.) 1.) (int_range (-1074) 1023) ])
    (fun f ->
      (not (Float.is_finite f))
      || match Jsonx.parse (Jsonx.to_string (Jsonx.Float f)) with
         | Ok (Jsonx.Int _ | Jsonx.Float _) -> true
         | _ -> false)

(* A CLI kind list: any text, or a valid selection damaged.  [parse]
   must not raise, and an [Ok] list must parse back to itself from its
   own comma-joined rendering. *)
let prop_kinds_round_trip ~name ~names ~parse ~render =
  let selection =
    G.map (String.concat ",")
      (G.list_size (G.int_range 1 4)
         (G.map2 (fun pad n -> if pad then " " ^ n ^ " " else n) G.bool (G.oneofl names)))
  in
  let gen =
    G.frequency
      [ (1, G.string_size (G.int_bound 40));
        (1, selection);
        (3, mutated ~n:3
              (fun s -> G.oneof [ flip s; insert ("," :: " " :: "-" :: names) s; truncate s ])
              selection) ]
  in
  fuzz ~name ~count:1000 ~print:print_bytes gen (fun s ->
      match parse s with
      | Error _ -> true
      | Ok ks -> parse (String.concat "," (List.map render ks)) = Ok ks)

let prop_faults_round_trip =
  prop_kinds_round_trip ~name:"cli: --faults list parses back"
    ~names:("all" :: List.map Fault.Plan.kind_to_string Fault.Plan.all_kinds)
    ~parse:Fault.Plan.kinds_of_string ~render:Fault.Plan.kind_to_string

let prop_lints_round_trip =
  prop_kinds_round_trip ~name:"cli: --lints list parses back"
    ~names:
      ([ "all"; "body"; "borrow"; "interprocedural"; "alias" ]
      @ List.map Analysis.Lint.to_string Analysis.Lint.catalogue)
    ~parse:Analysis.Lint.kinds_of_string ~render:Analysis.Lint.to_string

(* ------------------------------------------------------------------ *)
(* Driver determinism                                                  *)

let parse_response r =
  match Jsonx.parse r with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparseable response: %s" msg

let rfield j k =
  match Jsonx.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %S" k

let assert_ok j =
  if Jsonx.member "ok" j <> Some (Jsonx.Bool true) then
    Alcotest.failf "response not ok: %s" (Jsonx.to_string j)

let stdout_of j = Option.get (Jsonx.to_string_opt (rfield j "stdout"))
let scrubbed_of j = Jsonx.to_string (Summary.scrub (rfield j "summary"))
let status_of j = Option.get (Jsonx.to_int_opt (rfield j "status"))

let executed_of j =
  Option.get (Jsonx.to_int_opt (rfield (rfield j "summary") "executed"))

(* The phase-selection matrix: lint subsets, model checking on (with
   and without POR, on both mc geometries), the big geometry.  Every
   request is --quick-sized. *)
let matrix =
  [
    {|{"op":"verify","quick":true,"seed":11,"lints":"body"}|};
    {|{"op":"verify","quick":true,"seed":12,"lints":"all"}|};
    {|{"op":"verify","quick":true,"seed":13,"lints":"borrow","model_check":{"depth":3}}|};
    {|{"op":"verify","quick":true,"seed":14,"geometry":"x86_64","lints":"body"}|};
    {|{"op":"verify","quick":true,"seed":15,"lints":"interprocedural",
       "model_check":{"depth":3,"por":false,"geometry":"tiny3"}}|};
  ]

(* Two independent sessions must produce the same verification content:
   stdout byte-identical, summaries identical through the deterministic
   projection.  Each builds its own plan, so this also checks that
   rebuilding a plan never changes content. *)
let test_repeat_determinism () =
  List.iter
    (fun payload ->
      let a = parse_response (Driver.handle_one (Driver.session ()) payload) in
      let b = parse_response (Driver.handle_one (Driver.session ()) payload) in
      assert_ok a;
      assert_ok b;
      Alcotest.(check string) "stdout byte-identical" (stdout_of a) (stdout_of b);
      Alcotest.(check string) "scrubbed summary identical" (scrubbed_of a)
        (scrubbed_of b);
      Alcotest.(check int) "status identical" (status_of a) (status_of b);
      Alcotest.(check int) "clean verdict" 0 (status_of a))
    matrix

let refused j = Jsonx.member "ok" j = Some (Jsonx.Bool false)

(* A negative deadline is refused, not run as zero. *)
let test_session_rejects_negative () =
  (* the pool runs on one domain: any other job count is refused, not
     clamped to 1 *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises (Printf.sprintf "session jobs %d" jobs)
        (Invalid_argument "Driver.session: jobs must be 1") (fun () ->
          ignore (Driver.session ~jobs ()));
      Alcotest.check_raises (Printf.sprintf "pool jobs %d" jobs)
        (Invalid_argument "Pool.run: jobs must be 1") (fun () ->
          ignore (Engine.Pool.run ~jobs (Engine.Dag.build_exn []))))
    [ 0; 2 ];
  Alcotest.check_raises "negative timeout"
    (Invalid_argument "Driver.session: timeout_ms must be at least 0") (fun () ->
      ignore (Driver.session ~timeout_ms:(-5) ()))

(* Malformed payloads get error responses, and the session goes on to
   verify a good request. *)
let test_bad_payloads () =
  let session = Driver.session () in
  let handle payload = parse_response (Driver.handle_one session payload) in
  Alcotest.(check bool) "bad json refused" true (refused (handle "{"));
  Alcotest.(check bool) "bad request refused" true
    (refused (handle {|{"geometry":"riscv"}|}));
  assert_ok (handle {|{"op":"verify","quick":true,"seed":25,"lints":"body"}|})

let test_source_digest_gate () =
  let ok_payload =
    Printf.sprintf
      {|{"op":"verify","quick":true,"seed":26,"lints":"body","source_digest":"%s"}|}
      (Driver.source_digest_of "tiny")
  in
  assert_ok (parse_response (Driver.handle_one (Driver.session ()) ok_payload));
  let bad =
    parse_response
      (Driver.handle_one (Driver.session ())
         {|{"op":"verify","quick":true,"source_digest":"deadbeef"}|})
  in
  Alcotest.(check bool) "mismatched digest refused" true (refused bad)

(* The L0 replay lifecycle: a response is memoized only once its run
   re-executed nothing, and replayed bytes are identical. *)
let test_replay_lifecycle () =
  let session = Driver.session ~cache_dir:(fresh_dir ()) () in
  let p = {|{"op":"verify","quick":true,"seed":777,"lints":"body"}|} in
  let r1 = Driver.handle_one session p in
  let j1 = parse_response r1 in
  assert_ok j1;
  Alcotest.(check bool) "cold run executed work" true (executed_of j1 > 0);
  Alcotest.(check int) "cold response not memoized" 0 (Hashtbl.length session.Driver.replay);
  let r2 = Driver.handle_one session p in
  let j2 = parse_response r2 in
  Alcotest.(check int) "warm run pure cache replay" 0 (executed_of j2);
  Alcotest.(check int) "warm response memoized" 1 (Hashtbl.length session.Driver.replay);
  Alcotest.(check int) "not served from L0 yet" 0 session.Driver.replays;
  Alcotest.(check string) "stdout cold = warm" (stdout_of j1) (stdout_of j2);
  let r3 = Driver.handle_one session p in
  Alcotest.(check int) "third response served from L0" 1 session.Driver.replays;
  Alcotest.(check string) "replayed bytes identical" r2 r3

(* plan_build_s and plan_cache_hit surface in the summary; no plan is
   kept, so the repeat request builds again and the hit flag stays
   false. *)
let test_plan_fields_in_summary () =
  let p = {|{"op":"verify","quick":true,"seed":888,"lints":"body"}|} in
  let session = Driver.session () in
  let j1 = parse_response (Driver.handle_one session p) in
  let j2 = parse_response (Driver.handle_one session p) in
  let hit j =
    match Jsonx.member "plan_cache_hit" (rfield j "summary") with
    | Some (Jsonx.Bool b) -> b
    | _ -> Alcotest.fail "summary lacks plan_cache_hit"
  in
  (match Jsonx.member "plan_build_s" (rfield j1 "summary") with
  | Some (Jsonx.Float _) -> ()
  | _ -> Alcotest.fail "summary lacks plan_build_s");
  Alcotest.(check bool) "first request builds the plan" false (hit j1);
  Alcotest.(check bool) "repeat request builds it again" false (hit j2)

(* plan_build_s is schedule metadata like the pool's timestamps, so
   [prepare] reads it from Engine.Clock *)
let test_plan_build_s_from_clock () =
  let t = ref 100.0 in
  let fake () =
    t := !t +. 2.5;
    !t
  in
  let p =
    Engine.Clock.with_source fake (fun () ->
        Driver.prepare { Driver.default_request with quick = true; seed = 91 })
  in
  Alcotest.(check (float 0.0)) "build_s is one clock tick" 2.5 p.Driver.p_build_s;
  Alcotest.(check bool) "no plan is reused" false p.Driver.p_hit

(* No plan outlives its request: distinct requests to one session leave
   the live heap flat.  The session has no cache, so every run executes
   and neither L0 nor the cache index records anything. *)
let test_distinct_requests_keep_heap_flat () =
  let session = Driver.session () in
  let verify seed =
    assert_ok
      (parse_response
         (Driver.handle_one session
            (Printf.sprintf {|{"op":"verify","quick":true,"seed":%d}|} seed)))
  in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  List.iter verify [ 4101; 4102 ];
  let before = live_bytes () in
  List.iter verify [ 4103; 4104; 4105; 4106; 4107; 4108 ];
  let grown = live_bytes () - before in
  if grown >= 1 lsl 20 then
    Alcotest.failf "six distinct requests grew the live heap by %d bytes" grown

(* ------------------------------------------------------------------ *)
(* Cross-process proof-cache sharing                                   *)

(* A writer process interleaves stash/flush on a shared directory while
   this process interleaves its own flushes (contending for the
   advisory lock) and refresh/find loops (packs appear mid-scan).
   Every entry the child wrote must become visible here, and nothing
   may crash or corrupt. *)
let test_cache_two_process () =
  let dir = fresh_dir () in
  let total = 40 in
  let obl i = pass_obl ~fingerprint:(Printf.sprintf "fp%d" i) (Printf.sprintf "mp/%d" i) in
  match Unix.fork () with
  | 0 ->
      (try
         let c = Cache.create ~dir in
         for i = 0 to total - 1 do
           let o = obl i in
           Cache.stash c o (o.Obligation.run ());
           if i mod 4 = 3 then Cache.flush c;
           ignore (Cache.refresh c)
         done;
         Cache.flush c
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      let c = Cache.create ~dir in
      (* contend for the flush lock while the child writes *)
      for i = 0 to 9 do
        let o = pass_obl ~fingerprint:"pfp" (Printf.sprintf "parent/%d" i) in
        Cache.stash c o (o.Obligation.run ());
        Cache.flush c
      done;
      let deadline = Unix.gettimeofday () +. 30. in
      let visible () =
        ignore (Cache.refresh c);
        List.length
          (List.filter (fun i -> Cache.find c (obl i) <> None) (List.init total Fun.id))
      in
      let rec wait_all () =
        let n = visible () in
        if n = total then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "only %d/%d child entries visible" n total
        else begin
          Unix.sleepf 0.01;
          wait_all ()
        end
      in
      wait_all ();
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "writer process failed");
      (* and the parent's own entries survived the interleaving *)
      List.iter
        (fun i ->
          let o = pass_obl ~fingerprint:"pfp" (Printf.sprintf "parent/%d" i) in
          Alcotest.(check bool) "parent entry present" true (Cache.find c o <> None))
        (List.init 10 Fun.id)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)

(* The dispatcher's state around one freshly forked worker that holds
   [job], with [tag_owner] recording whose request each tag is. *)
let one_worker_state ?job ?(tag_owner = []) () =
  let cfg = Server.default_config ~socket:"unused" in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let pid, fd = Server.fork_worker cfg ~client_fds:[] ~listen_fd in
  {
    Server.cfg;
    listen_fd;
    clients = Hashtbl.create 1;
    worker =
      { Server.w_pid = pid; w_fd = fd; w_reader = Protocol.Reader.create ();
        w_job = job; w_job_deaths = 0; w_idle_deaths = 0 };
    tag_owner;
    next_tag = 2;
    pending = Queue.create ();
    stop = false;
    dead_fds = [];
  }

(* A dead worker's request stays with it and goes to the replacement, so
   it is answered before a request that arrived after it; the answer
   hands the worker that later request, which starts with no deaths. *)
let test_respawn_requeues_at_front () =
  let client, client_peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let victim = (0, {|{"op":"verify","geometry":"riscv"}|}) in
  let later = (1, {|{"op":"verify","geometry":"sparc"}|}) in
  let st = one_worker_state ~job:victim ~tag_owner:[ (0, client) ] () in
  let w = st.Server.worker in
  let pid = w.Server.w_pid in
  Queue.add later st.Server.pending;
  Unix.kill pid Sys.sigkill;
  (* reads the dead worker's EOF and respawns it *)
  Server.on_worker_readable st;
  Alcotest.(check bool) "worker respawned" true (w.Server.w_pid <> pid);
  (* a replacement that never gets the victim fails the test, not hangs it *)
  Unix.setsockopt_float w.Server.w_fd Unix.SO_RCVTIMEO 30.0;
  Server.dispatch_ready st;
  Alcotest.(check (option (pair int string))) "victim dispatched first"
    (Some victim) w.Server.w_job;
  Alcotest.(check (list (pair int string))) "later request still queued" [ later ]
    (List.of_seq (Queue.to_seq st.Server.pending));
  (* the replacement worker answers the victim's request *)
  Server.on_worker_readable st;
  (match Protocol.read_frame client_peer with
  | Ok (Some r) ->
      Alcotest.(check (option string)) "victim's answer"
        (Some {|bad request: unknown geometry "riscv"|})
        (Option.bind (Jsonx.member "error" (parse_response r)) Jsonx.to_string_opt)
  | Ok None | Error _ -> Alcotest.fail "replacement worker did not answer");
  Alcotest.(check (option (pair int string))) "then the later request"
    (Some later) w.Server.w_job;
  Alcotest.(check int) "with no deaths" 0 w.Server.w_job_deaths;
  Unix.close w.Server.w_fd;
  ignore (Unix.waitpid [] w.Server.w_pid);
  List.iter Unix.close [ client; client_peer; st.Server.listen_fd ]

(* A request whose worker died [max_deaths] times is answered with an
   error instead of re-sent; a worker that then dies that many times in
   a row without a request is not replaced, and the request still
   queued is answered with an error too. *)
let test_respawn_bounded () =
  let client, client_peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let victim = (0, {|{"op":"verify","geometry":"riscv"}|}) in
  let later = (1, {|{"op":"verify","geometry":"sparc"}|}) in
  let st = one_worker_state ~job:victim ~tag_owner:[ (0, client); (1, client) ] () in
  let w = st.Server.worker in
  let pid = w.Server.w_pid in
  w.Server.w_job_deaths <- Server.max_deaths - 1;
  Queue.add later st.Server.pending;
  let error_answer what =
    match Protocol.read_frame client_peer with
    | Ok (Some r) ->
        Option.value ~default:""
          (Option.bind (Jsonx.member "error" (parse_response r)) Jsonx.to_string_opt)
    | Ok None | Error _ -> Alcotest.failf "%s: no answer" what
  in
  Unix.kill pid Sys.sigkill;
  Server.on_worker_readable st;
  Alcotest.(check string) "the victim is answered with an error"
    (Printf.sprintf "worker died %d times running this request" Server.max_deaths)
    (error_answer "victim");
  Alcotest.(check (list (pair int string))) "and not re-queued" [ later ]
    (List.of_seq (Queue.to_seq st.Server.pending));
  Alcotest.(check bool) "its worker is respawned" true
    (Server.live w && w.Server.w_pid <> pid);
  for _ = 1 to Server.max_deaths do
    Unix.kill w.Server.w_pid Sys.sigkill;
    Server.on_worker_readable st
  done;
  Alcotest.(check bool) "no worker is left" false (Server.live w);
  Alcotest.(check bool) "and its closed fd number maps to no worker" false
    (Server.is_worker_pipe st w.Server.w_fd);
  Alcotest.(check string) "the queued request is answered with an error"
    Server.no_worker_left (error_answer "later");
  Alcotest.(check int) "and the queue is empty" 0 (Queue.length st.Server.pending);
  List.iter Unix.close [ client; client_peer; st.Server.listen_fd ]

(* A worker respawned while a client is connected must not inherit the
   client's socket: once the dispatcher drops that client, the client
   reads EOF even while the replacement worker lives. *)
let test_respawn_closes_client_fds () =
  let st = one_worker_state () in
  let w = st.Server.worker in
  let pid = w.Server.w_pid in
  let client, client_peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Hashtbl.replace st.Server.clients client { Server.c_reader = Protocol.Reader.create () };
  Unix.kill pid Sys.sigkill;
  Server.on_worker_readable st;
  Alcotest.(check bool) "worker respawned" true (w.Server.w_pid <> pid);
  (* an answered request shows the replacement is past its fd clean-up *)
  Protocol.write_frame w.Server.w_fd {|{"op":"verify","geometry":"riscv"}|};
  (match Protocol.read_frame w.Server.w_fd with
  | Ok (Some _) -> ()
  | Ok None | Error _ -> Alcotest.fail "replacement worker did not answer");
  Server.forget_client st client;
  Unix.set_nonblock client_peer;
  (match Unix.read client_peer (Bytes.create 1) 0 1 with
  | n -> Alcotest.(check int) "the dropped client reads EOF" 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "the respawned worker holds the dropped client's socket");
  Unix.close w.Server.w_fd;
  ignore (Unix.waitpid [] w.Server.w_pid);
  List.iter Unix.close [ client_peer; st.Server.listen_fd ]

(* ------------------------------------------------------------------ *)
(* Daemons over a Unix socket                                          *)

(* Fork a daemon on a fresh socket, run [f socket] against it, then
   shut it down. *)
let with_daemon f =
  let socket = fresh_dir () ^ ".sock" in
  match Unix.fork () with
  | 0 ->
      (try Server.serve (Server.default_config ~socket) with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Client.shutdown ~socket) with _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          Alcotest.(check bool) "daemon ready" true (Client.wait_ready ~socket ());
          f socket)

let test_daemon_end_to_end () =
  with_daemon (fun socket ->
      let req = {|{"op":"verify","quick":true,"seed":4242,"lints":"body"}|} in
      (match Client.request ~socket req with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          let daemon = parse_response r in
          assert_ok daemon;
          Alcotest.(check int) "clean verdict over the wire" 0 (status_of daemon);
          (* byte-identical to local evaluation of the same request *)
          let local = parse_response (Driver.handle_one (Driver.session ()) req) in
          Alcotest.(check string) "daemon stdout = local stdout"
            (stdout_of local) (stdout_of daemon);
          Alcotest.(check string) "daemon summary = local summary (scrubbed)"
            (scrubbed_of local) (scrubbed_of daemon));
      (* malformed JSON is answered, not fatal *)
      (match Client.request ~socket "{definitely not json" with
      | Ok r ->
          Alcotest.(check bool) "malformed payload refused" true
            (refused (parse_response r))
      | Error msg -> Alcotest.fail msg);
      (* pathologically nested JSON is answered with a parse error,
         not a Stack_overflow that kills the daemon *)
      (match Client.request ~socket (String.make 500_000 '[') with
      | Ok r ->
          Alcotest.(check bool) "deep nesting refused" true (refused (parse_response r))
      | Error msg -> Alcotest.fail msg);
      (* a second daemon must refuse to steal a live socket; run the
         contender in a child so a regression (it binds and serves
         forever) fails the test instead of hanging it *)
      (match Unix.fork () with
      | 0 -> (
          match Server.serve (Server.default_config ~socket) with
          | () -> Unix._exit 10
          | exception Failure _ -> Unix._exit 11
          | exception _ -> Unix._exit 12)
      | contender ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] contender with
            | 0, _ ->
                if Unix.gettimeofday () > deadline then begin
                  Unix.kill contender Sys.sigkill;
                  ignore (Unix.waitpid [] contender);
                  Alcotest.fail "second daemon did not refuse promptly"
                end
                else begin
                  Unix.sleepf 0.02;
                  wait ()
                end
            | _, Unix.WEXITED 11 -> ()
            | _, _ -> Alcotest.fail "second daemon did not refuse the live socket"
          in
          wait ());
      (* an oversized frame announcement gets an error response and
         a closed connection, and the daemon survives *)
      (match Client.connect socket with
      | Error msg -> Alcotest.fail msg
      | Ok fd ->
          let n = Protocol.max_frame + 1 in
          let hdr =
            String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
          in
          let w = Unix.write_substring fd hdr 0 4 in
          Alcotest.(check int) "header written" 4 w;
          (match Protocol.read_frame fd with
          | Ok (Some r) ->
              Alcotest.(check bool) "oversized refused" true (refused (parse_response r))
          | Ok None | Error _ -> Alcotest.fail "expected an error response");
          Unix.close fd);
      Alcotest.(check bool) "daemon still answers pings" true (Client.ping ~socket))

(* A worker that dies at start-up is respawned a bounded number of
   times.  Here every worker's [Cache.create] fails, because the cache
   directory sits under a regular file: the daemon still answers a
   request, with an error, within the deadline; its log holds a bounded
   number of respawns; and shutdown returns. *)
let test_daemon_dying_workers () =
  let file = fresh_dir () and log = fresh_dir () ^ ".log" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "not a directory");
  let socket = fresh_dir () ^ ".sock" in
  let cfg =
    { (Server.default_config ~socket) with
      Server.cache_dir = Some (Filename.concat file "sub") }
  in
  match Unix.fork () with
  | 0 ->
      let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stderr;
      (try Server.serve cfg with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Alcotest.(check bool) "daemon ready" true (Client.wait_ready ~socket ());
      (match Client.connect socket with
      | Error msg -> Alcotest.fail msg
      | Ok fd ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
          Protocol.write_frame fd {|{"op":"verify","quick":true}|};
          (match Protocol.read_frame fd with
          | Ok (Some r) ->
              Alcotest.(check bool) "answered with an error" true
                (refused (parse_response r))
          | Ok None | Error _ -> Alcotest.fail "connection closed unanswered"
          | exception Unix.Unix_error _ -> Alcotest.fail "no answer within 30 s");
          Unix.close fd);
      ignore (Client.shutdown ~socket);
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () > deadline ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.fail "shutdown did not return"
        | 0, _ ->
            Unix.sleepf 0.02;
            wait ()
        | _ -> ()
      in
      wait ();
      let respawns =
        In_channel.with_open_bin log In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun line -> String.ends_with ~suffix:"died; respawning" line)
        |> List.length
      in
      if respawns > 2 * Server.max_deaths then
        Alcotest.failf "%d respawns (bound %d)" respawns (2 * Server.max_deaths);
      List.iter Sys.remove [ file; log ]

(* A request of exactly max_frame bytes crosses the dispatcher→worker
   pipe as it came: it is valid JSON naming an unknown geometry, so the
   worker's own validation error comes back, and the daemon keeps
   serving. *)
let test_daemon_max_size_frame () =
  with_daemon (fun socket ->
      let head = {|{"op":"verify","geometry":"riscv","pad":"|} and tail = {|"}|} in
      let pad = Protocol.max_frame - String.length head - String.length tail in
      let payload = head ^ String.make pad 'x' ^ tail in
      Alcotest.(check int) "payload fills the frame" Protocol.max_frame
        (String.length payload);
      (match Client.request ~socket payload with
      | Ok r ->
          Alcotest.(check (option string)) "the worker's validation error"
            (Some {|bad request: unknown geometry "riscv"|})
            (Option.bind (Jsonx.member "error" (parse_response r)) Jsonx.to_string_opt)
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check bool) "daemon still answers pings" true (Client.ping ~socket);
      match Client.request ~socket {|{"op":"verify","quick":true,"lints":"body"}|} with
      | Ok r -> assert_ok (parse_response r)
      | Error msg -> Alcotest.fail msg)

(* Four connections each send one distinct request to the daemon before
   any answer is read, so three requests wait in the queue behind its
   one worker.  Each connection gets its own answer, equal to local
   evaluation. *)
let test_daemon_concurrent_distinct () =
  with_daemon (fun socket ->
      let payloads =
        List.init 4 (fun i ->
            Printf.sprintf {|{"op":"verify","quick":true,"seed":%d,"lints":"body"}|}
              (61 + i))
      in
      let fds =
        List.map
          (fun payload ->
            match Client.connect socket with
            | Ok fd ->
                Protocol.write_frame fd payload;
                fd
            | Error msg -> Alcotest.fail msg)
          payloads
      in
      let stdouts =
        List.map2
          (fun payload fd ->
            let daemon =
              match Protocol.read_frame fd with
              | Ok (Some r) -> parse_response r
              | Ok None | Error _ -> Alcotest.fail "connection got no answer"
            in
            Unix.close fd;
            assert_ok daemon;
            let local = parse_response (Driver.handle_one (Driver.session ()) payload) in
            Alcotest.(check string) "daemon stdout = local stdout" (stdout_of local)
              (stdout_of daemon);
            Alcotest.(check string) "daemon summary = local summary (scrubbed)"
              (scrubbed_of local) (scrubbed_of daemon);
            stdout_of daemon)
          payloads fds
      in
      Alcotest.(check int) "four different answers" 4
        (List.length (List.sort_uniq String.compare stdouts)))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Rendering of failing output                                         *)

(* Hand-built execs covering every FAIL shape [Render.engine_results]
   prints: a per-body analysis failure without a finding, one error
   finding per lint phase (discharge certificates alongside), a failing
   code-proof report and a failing attack. *)
let exec ~phase ?(findings = []) ?(log = "") id reports =
  {
    Engine.Pool.obligation = pass_obl ~phase id;
    outcome = Obligation.outcome ~log ~findings reports;
    cache = Engine.Pool.Miss;
    worker = 0;
    started = 0.0;
    finished = 0.0;
    trail = Engine.Supervisor.cached;
  }

let failing name ~case ~reason =
  Report.add_failure (Report.add_pass (Report.empty name)) ~case ~reason

let passing name = Report.add_pass (Report.add_pass (Report.empty name))

let failing_execs =
  let module L = Analysis.Lint in
  let err kind where detail = L.v kind ~where detail in
  let cert kind where =
    L.v ~severity:L.Info ~discharged_by:(L.to_string kind) L.Unchecked_arith ~where
      "discharged"
  in
  [
    exec ~phase:"analysis" "analysis/PtQuery/pte_is_present"
      [ failing "pte_is_present" ~case:"pte_is_present"
          ~reason:"layer lists a function with no MIRlight body" ];
    exec ~phase:"analysis" "analysis/PtMap/map_page"
      ~findings:[ ("map_page", err L.Move_init "bb3[1]" "use of moved _4") ]
      [ failing "map_page" ~case:"move-init@bb3[1]" ~reason:"use of moved _4" ];
    exec ~phase:"analysis" "analysis/PtMap/unmap_page" [ passing "unmap_page" ];
    exec ~phase:"absint" "absint/interval/walk"
      ~findings:
        [
          ("walk", err L.Interval_bounds "bb2[0]" "index 9 out of [0, 8)");
          ("walk", cert L.Interval_bounds "bb5[2]");
        ]
      [ failing "absint/interval/walk" ~case:"interval-bounds walk@bb2[0]"
          ~reason:"index 9 out of [0, 8)" ];
    exec ~phase:"absint" "absint/secret-flow/hc_read"
      ~findings:[ ("hc_read", err L.Secret_flow "bb1[term]" "secret reaches os sink") ]
      [ failing "absint/secret-flow/hc_read" ~case:"secret-flow hc_read@bb1[term]"
          ~reason:"secret reaches os sink" ];
    exec ~phase:"borrow" "borrow/PtMap/map_page"
      ~findings:[ ("map_page", err L.Conflicting_borrow "bb4[0]" "_2 borrowed twice") ]
      [ failing "map_page" ~case:"conflicting-borrow@bb4[0]" ~reason:"_2 borrowed twice" ];
    exec ~phase:"alias" "alias/points-to/frame_alloc"
      ~findings:
        [
          ("frame_alloc", err L.Alias_footprint "bb0[3]" "writes outside its frame");
          ("frame_alloc", cert L.Alias_footprint "bb6[1]");
        ]
      [ failing "alias/points-to/frame_alloc" ~case:"alias-footprint frame_alloc@bb0[3]"
          ~reason:"writes outside its frame" ];
    exec ~phase:"code-proofs" "code-proof/PtMap/map_page"
      [
        failing "map_page" ~case:"va=0x1000" ~reason:"post-state differs";
        passing "map_page (composed)";
      ];
    exec ~phase:"code-proofs" "code-proof/PtQuery/query" [ passing "query" ];
    exec ~phase:"refinement" "refine/shard-00"
      [ failing "flat/tree simulation (R)" ~case:"trial 3" ~reason:"R broken" ];
    exec ~phase:"invariants" "invariants/batch-00" [ passing "invariants on reachable states" ];
    exec ~phase:"noninterference" "noninterference/integrity/os"
      [ passing "integrity (os)" ];
    exec ~phase:"trace-ni" "trace-ni/os" [ passing "trace noninterference (os)" ];
    exec ~phase:"attacks" "attacks/fig5a" ~log:"fig5a                  REJECTED by I1 (as expected)"
      [ passing "attack scenarios (Fig. 5)" ];
    exec ~phase:"attacks" "attacks/fig5b" ~log:"fig5b                  UNEXPECTED: accepted"
      [ failing "attack scenarios (Fig. 5)" ~case:"fig5b" ~reason:"accepted" ];
  ]

let render_failing () =
  let failures = ref 0 in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Serve.Render.engine_results ppf ~failures ~security:true failing_execs;
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, !failures)

let test_render_failing_output () =
  let text, failures = render_failing () in
  Alcotest.(check int) "failure count" 9 failures;
  Alcotest.(check string) "FAIL lines" {|
=== 3. static analysis (MIRlight dataflow lints) ===
  3 functions, 6 lint checks: 4 passed, 1 findings
  FAIL [PtQuery] pte_is_present                               2 cases,     1 passed,    0 skipped,   1 failed
    FAIL [pte_is_present]: layer lists a function with no MIRlight body
  FAIL [map_page] bb3[1]: [move-init] use of moved _4

=== 3b. abstract interpretation (interval bounds + secret flow) ===
  2 SCC obligations: 1 secret-flow findings, 1 interval findings, 1 arith sites discharged
  FAIL [hc_read] bb1[term]: [secret-flow] secret reaches os sink
  FAIL [walk] bb2[0]: [interval-bounds] index 9 out of [0, 8)

=== 3c. borrow checking (NLL liveness regions + loan dataflow) ===
  1 functions, 2 borrow checks: 1 passed, 1 findings
  FAIL [map_page] bb4[0]: [conflicting-borrow] _2 borrowed twice

=== 3d. alias analysis (Andersen points-to footprints) ===
  1 SCC obligations: 1 alias findings, 1 warnings discharged
  FAIL [frame_alloc] bb0[3]: [alias-footprint] writes outside its frame

=== 4. code proofs (code conforms to low specs) ===
  2 functions, 6 cases: 5 passed, 0 skipped, 1 failed
  FAIL [PtMap] map_page                                     2 cases,     1 passed,    0 skipped,   1 failed
    FAIL [va=0x1000]: post-state differs

=== 5. page-table refinement (flat <-> tree, Sec. 4.1) ===
  flat/tree simulation (R)                     2 cases,     1 passed,    0 skipped,   1 failed
    FAIL [trial 3]: R broken

=== 6. invariants (Sec. 5.2) on reachable states ===
  invariants on reachable states               2 cases,     2 passed,    0 skipped,   0 failed

=== 7. noninterference (Lemmas 5.2-5.4, Sec. 5.3) ===
  integrity (os)                               2 cases,     2 passed,    0 skipped,   0 failed

=== 8. trace noninterference (Theorem 5.1) ===
  trace noninterference (os)                   2 cases,     2 passed,    0 skipped,   0 failed

=== 9. attack scenarios (Fig. 5 + Sec. 4.1 shallow copy) ===
  fig5a                  REJECTED by I1 (as expected)
  fig5b                  UNEXPECTED: accepted
|} text

(* The default plan stubs same-layer callees with their specs, and
   the summary says so. *)
let test_summary_stubbed_calls () =
  let p = Driver.prepare Driver.default_request in
  let summary =
    Summary.summary_json ~failures:0 ~cache_enabled:false
      ~sup_totals:(Engine.Supervisor.totals []) ~cache_write_failures:0 ~model_check:None
      ~plan:p.Driver.p_plan
      ~plan_build_s:0.0 ~plan_cache_hit:false []
  in
  match
    Option.bind (Jsonx.member "overrides" summary) (fun o ->
        Option.bind (Jsonx.member "stubbed_calls_total" o) Jsonx.to_int_opt)
  with
  | Some n -> Alcotest.(check bool) "stubbed_calls_total > 0" true (n > 0)
  | None -> Alcotest.fail "summary lacks overrides.stubbed_calls_total"

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn feed" `Quick test_frame_torn_feed;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "blocking read" `Quick test_blocking_read_frame;
          Alcotest.test_case "framing" `Quick test_framing;
        ] );
      ( "jsonx-parse",
        [
          Alcotest.test_case "round trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "numbers" `Quick test_jsonx_numbers;
          Alcotest.test_case "errors" `Quick test_jsonx_errors;
          Alcotest.test_case "not JSON: loose numbers and escapes" `Quick
            test_jsonx_not_json;
          Alcotest.test_case "nesting depth" `Quick test_jsonx_depth;
        ] );
      ( "request",
        [
          Alcotest.test_case "defaults" `Quick test_request_defaults;
          Alcotest.test_case "round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "validation" `Quick test_request_validation;
        ] );
      ( "fuzz",
        [
          prop_reader_random_bytes;
          prop_frames_any_chunking;
          prop_json_parse_total;
          prop_request_decode_total;
          prop_json_number_grammar;
          prop_json_string_emit;
          prop_json_float_emit;
          prop_faults_round_trip;
          prop_lints_round_trip;
        ] );
      ( "cache-multiprocess",
        [
          Alcotest.test_case "two-process stress" `Quick test_cache_two_process;
        ] );
      ( "driver",
        [
          Alcotest.test_case "repeat determinism" `Slow test_repeat_determinism;
          Alcotest.test_case "bad payloads" `Quick test_bad_payloads;
          Alcotest.test_case "negative session settings" `Quick
            test_session_rejects_negative;
          Alcotest.test_case "source digest gate" `Quick test_source_digest_gate;
          Alcotest.test_case "replay lifecycle" `Quick test_replay_lifecycle;
          Alcotest.test_case "plan fields in summary" `Quick test_plan_fields_in_summary;
          Alcotest.test_case "plan build time" `Quick test_plan_build_s_from_clock;
          Alcotest.test_case "distinct requests keep the heap flat" `Quick
            test_distinct_requests_keep_heap_flat;
          Alcotest.test_case "summary counts stubbed calls" `Quick
            test_summary_stubbed_calls;
        ] );
      ( "render",
        [ Alcotest.test_case "failing output" `Quick test_render_failing_output ] );
      ( "dispatcher",
        [
          Alcotest.test_case "respawn requeues at the front" `Quick
            test_respawn_requeues_at_front;
          Alcotest.test_case "respawns are bounded" `Quick test_respawn_bounded;
          Alcotest.test_case "respawn closes client sockets" `Quick
            test_respawn_closes_client_fds;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Slow test_daemon_end_to_end;
          Alcotest.test_case "max-size frame crosses the pipe" `Slow
            test_daemon_max_size_frame;
          Alcotest.test_case "concurrent distinct requests" `Slow
            test_daemon_concurrent_distinct;
          Alcotest.test_case "workers dying at start-up" `Slow
            test_daemon_dying_workers;
        ] );
    ]
