type t = Os | Enclave of int

let equal a b =
  match (a, b) with
  | Os, Os -> true
  | Enclave x, Enclave y -> x = y
  | (Os | Enclave _), _ -> false

let compare a b =
  match (a, b) with
  | Os, Os -> 0
  | Os, Enclave _ -> -1
  | Enclave _, Os -> 1
  | Enclave x, Enclave y -> Int.compare x y

let to_string = function
  | Os -> "primary-os"
  | Enclave e -> "enclave-" ^ string_of_int e

let pp fmt p = Format.pp_print_string fmt (to_string p)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
