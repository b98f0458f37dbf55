type base = Global of string | Local of int * string

type proj = Field of int | Index of int

type t = { base : base; projs : proj list }

let global name = { base = Global name; projs = [] }
let local ~frame var = { base = Local (frame, var); projs = [] }
let extend p pr = { p with projs = p.projs @ [ pr ] }

let base_equal a b =
  match (a, b) with
  | Global x, Global y -> String.equal x y
  | Local (f, x), Local (g, y) -> f = g && String.equal x y
  | (Global _ | Local _), _ -> false

let base_compare a b =
  match (a, b) with
  | Global x, Global y -> String.compare x y
  | Global _, Local _ -> -1
  | Local _, Global _ -> 1
  | Local (f, x), Local (g, y) ->
      let c = Int.compare f g in
      if c <> 0 then c else String.compare x y

let proj_equal (a : proj) (b : proj) = a = b

let equal a b =
  base_equal a.base b.base
  && List.length a.projs = List.length b.projs
  && List.for_all2 proj_equal a.projs b.projs

let pp_base fmt = function
  | Global name -> Format.fprintf fmt "@%s" name
  | Local (frame, var) -> Format.fprintf fmt "%%%d:%s" frame var

let pp_proj fmt = function
  | Field i -> Format.fprintf fmt ".%d" i
  | Index i -> Format.fprintf fmt "[%d]" i

let pp fmt p =
  pp_base fmt p.base;
  List.iter (pp_proj fmt) p.projs

let to_string p = Format.asprintf "%a" pp p

module Base = struct
  type t = base

  let equal = base_equal
  let compare = base_compare
  let pp = pp_base
end
