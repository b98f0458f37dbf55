(* Quickstart: verify a small Rust(lite) function with MIRVerif.

   The full flow on a toy example:
     1. write idiomatic Rust-subset code,
     2. compile it to MIRlight (what mirlightgen does, paper Sec. 3.3),
     3. write a functional specification,
     4. check that the code running under the MIR semantics conforms
        to the specification on a battery of inputs (Sec. 4.3).

   Run with: dune exec examples/quickstart.exe *)

let rust_source =
  {|
    // Greatest common divisor, Euclid-style, in the Rust subset.
    fn gcd(a0: u64, b0: u64) -> u64 {
        let mut a = a0;
        let mut b = b0;
        while b != 0 {
            let t = b;
            b = a % b;
            a = t;
        }
        a
    }
  |}

(* The functional specification: a pure OCaml model. *)
let rec gcd_model a b = if Int64.equal b 0L then a else gcd_model b (Int64.unsigned_rem a b)

let spec =
  Mirverif.Spec.pure "gcd" (fun args ->
      match args with
      | [ Mir.Value.Int (a, _); Mir.Value.Int (b, _) ] ->
          Ok (Mir.Value.u64 (gcd_model a b))
      | _ -> Error "gcd expects two integers")

let () =
  (* 1-2. compile *)
  let out =
    match Rustlite.Pipeline.compile rust_source with
    | Ok out -> out
    | Error msg -> failwith msg
  in
  print_endline "=== MIRlight code generated from the Rust source ===";
  print_string (Rustlite.Pipeline.emit out);

  (* 3-4. conformance check on a grid of inputs *)
  let cases =
    Seq.concat_map
      (fun a ->
        Seq.map
          (fun b -> Mirverif.Refine.case () [ Mir.Value.u64 a; Mir.Value.u64 b ])
          (List.to_seq [ 0L; 1L; 6L; 35L; 36L; 1071L; 462L; 0xFFFF_FFFF_FFFF_FFFFL ]))
      (List.to_seq [ 0L; 1L; 12L; 18L; 1071L; 462L; 97L ])
  in
  let check =
    Mirverif.Refine.check ~fn:"gcd" ~spec
      ~eq:(Mirverif.Refine.equiv (fun () () -> true))
      cases
  in
  let env = Mir.Interp.env ~prims:[] out.Rustlite.Pipeline.program in
  let report = Mirverif.Refine.run env check in
  print_endline "\n=== Conformance check: code vs specification ===";
  print_endline (Mirverif.Report.to_string report);
  if Mirverif.Report.ok report then
    print_endline "gcd: the MIR code refines its functional specification."
  else exit 1
