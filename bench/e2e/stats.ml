(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the
   "exclusive" method), so numbers reported here match the acceptance
   rule computed from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then (0.0, 0.0, 0.0)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail latency and its percentile: the highest percentile with at
   least ten samples beyond it, but no higher than p99 -- a p99.9 of a
   fast served run is one scheduler hiccup, and differs from run to run
   by half.  The maximum when n <= 10. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 100.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else
    let beyond = max 10 (n / 100) in
    (a.(n - 1 - beyond), 100.0 *. float_of_int (n - beyond) /. float_of_int n)

let sum = List.fold_left ( +. ) 0.0
