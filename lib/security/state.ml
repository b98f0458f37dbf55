module Word = Mir.Word

let nregs = 4

type regs = Word.t array

let zero_regs () = Array.make nregs Word.zero

let regs_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Word.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let pp_regs fmt r =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       Word.pp)
    (Array.to_list r)

type t = {
  mon : Hyperenclave.Absdata.t;
  active : Principal.t;
  regs : regs;
  ctx : regs Principal.Map.t;
  oracles : Oracle.t Principal.Map.t;
  tlb : Tlb.t;
}

let boot layout =
  {
    mon = Hyperenclave.Boot.booted layout;
    active = Principal.Os;
    regs = zero_regs ();
    ctx = Principal.Map.empty;
    oracles = Principal.Map.empty;
    tlb = Tlb.empty;
  }

let saved_ctx st p =
  match Principal.Map.find_opt p st.ctx with
  | Some r -> r
  | None -> zero_regs ()

let oracle_of st p =
  match Principal.Map.find_opt p st.oracles with
  | Some o -> o
  | None -> Oracle.create ()

let take_oracle st p =
  let v, o = Oracle.take (oracle_of st p) in
  (v, { st with oracles = Principal.Map.add p o st.oracles })

let reg st i =
  if i < 0 || i >= nregs then Error (Printf.sprintf "register %d out of range" i)
  else Ok st.regs.(i)

let with_reg st i v =
  if i < 0 || i >= nregs then Error (Printf.sprintf "register %d out of range" i)
  else
    let regs = Array.copy st.regs in
    (regs.(i) <- v;
     Ok { st with regs })

(* Principals bound in either map. *)
let bound_in m n =
  List.sort_uniq Principal.compare
    (List.map fst (Principal.Map.bindings m) @ List.map fst (Principal.Map.bindings n))

let equal a b =
  Hyperenclave.Absdata.equal a.mon b.mon
  && Principal.equal a.active b.active
  && regs_equal a.regs b.regs
  && Tlb.equal a.tlb b.tlb
  && (* an absent context or oracle compares as its default: zero
        registers, a never-used stream *)
  List.for_all
    (fun p -> regs_equal (saved_ctx a p) (saved_ctx b p))
    (bound_in a.ctx b.ctx)
  && List.for_all
       (fun p -> Oracle.equal_stream (oracle_of a p) (oracle_of b p))
       (bound_in a.oracles b.oracles)

let pp fmt st =
  Format.fprintf fmt "@[<v>active: %a, regs: %a@,%a@]" Principal.pp st.active
    pp_regs st.regs Hyperenclave.Absdata.pp st.mon
