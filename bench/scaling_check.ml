(* Pool scaling check: adding workers must never cost wall-clock.  The
   quick plan (seed 2024, tiny geometry, no cache) runs twice at each
   job count; the best jobs=4 wall has to stay within the best jobs=1
   wall plus 25 % headroom.  The old pool lost 4-5x here (per-completion
   broadcasts and domains oversubscribing the hardware); this pins the
   fix.  Exits 1 when the bound does not hold.

   Run with: dune exec bench/scaling_check.exe *)

open Hyperenclave

let headroom = 1.25

let () =
  let plan = Engine.Plan.build ~quick:true ~seed:2024 (Layout.default Geometry.tiny) in
  let dag = plan.Engine.Plan.dag in
  (* best of two runs per point, so one scheduler hiccup cannot decide *)
  let wall jobs =
    let once () =
      let t0 = Unix.gettimeofday () in
      ignore (Engine.Pool.run ~jobs dag);
      Unix.gettimeofday () -. t0
    in
    Float.min (once ()) (once ())
  in
  let walls = List.map (fun jobs -> (jobs, wall jobs)) [ 1; 2; 4 ] in
  Printf.printf "scaling: %s on %d cores\n"
    (String.concat ", "
       (List.map (fun (jobs, w) -> Printf.sprintf "jobs=%d %.4fs" jobs w) walls))
    (Domain.recommended_domain_count ());
  let w1 = List.assoc 1 walls and w4 = List.assoc 4 walls in
  if w4 > w1 *. headroom then begin
    Printf.printf "scaling check FAILED: jobs=4 wall %.4fs exceeds jobs=1 wall %.4fs + 25%%\n"
      w4 w1;
    exit 1
  end;
  print_endline "scaling check ok"
