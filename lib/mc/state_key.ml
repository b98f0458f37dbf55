open Hyperenclave
open Security
module Word = Mir.Word

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

let is_default_oracle o = Oracle.equal_stream o (Oracle.create ())

let canonicalize (st : State.t) =
  let oracles =
    Principal.Map.filter (fun _ o -> not (is_default_oracle o)) st.State.oracles
  in
  let zero = State.zero_regs () in
  let ctx =
    Principal.Map.filter (fun _ r -> not (State.regs_equal r zero)) st.State.ctx
  in
  { st with State.oracles; ctx }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let add_word buf w = Buffer.add_string buf (Word.to_hex w)
let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_regs buf (regs : State.regs) =
  Array.iter
    (fun w ->
      add_word buf w;
      Buffer.add_char buf ',')
    regs

let add_principal buf p = Buffer.add_string buf (Principal.to_string p)

(* Position plus a short sample of the upcoming values: oracles with
   the same position but different generators (a [Replay] stream
   versus the seeded default) must not collide. *)
let add_oracle buf o =
  add_int buf (Oracle.position o);
  let rec sample o k =
    if k > 0 then begin
      let v, o = Oracle.take o in
      Buffer.add_char buf ':';
      add_word buf v;
      sample o (k - 1)
    end
  in
  sample o 4

let add_flags buf (f : Flags.t) = Buffer.add_string buf (Flags.to_string f)

let add_mon buf (d : Absdata.t) =
  Buffer.add_string buf "|phys=";
  List.iter
    (fun (a, v) ->
      add_word buf a;
      Buffer.add_char buf '=';
      add_word buf v;
      Buffer.add_char buf ',')
    (Phys_mem.nonzero_words d.Absdata.phys);
  Buffer.add_string buf "|falloc=";
  List.iter
    (fun i ->
      add_int buf i;
      Buffer.add_char buf ',')
    (Frame_alloc.allocated_list d.Absdata.falloc);
  Buffer.add_string buf "|epcm=";
  (* fold order is the allocator index order; Free entries carry no
     information (a fresh EPCM is all-Free) *)
  ignore
    (Epcm.fold
       (fun page state () ->
         match state with
         | Epcm.Free -> ()
         | Epcm.Valid { eid; va } ->
             add_int buf page;
             Buffer.add_string buf "->";
             add_int buf eid;
             Buffer.add_char buf '@';
             add_word buf va;
             Buffer.add_char buf ',')
       d.Absdata.epcm ());
  Buffer.add_string buf "|enclaves=";
  List.iter
    (fun eid ->
      match Absdata.find_enclave d eid with
      | Error _ -> ()
      | Ok (e : Enclave.t) ->
          add_int buf e.Enclave.eid;
          Buffer.add_string buf
            (match e.Enclave.state with
            | Enclave.Created -> "{created;"
            | Enclave.Initialized -> "{initialized;");
          add_word buf e.Enclave.elrange_base;
          Buffer.add_char buf '+';
          add_int buf e.Enclave.elrange_pages;
          Buffer.add_char buf ';';
          add_word buf e.Enclave.mbuf_va;
          Buffer.add_char buf '+';
          add_int buf e.Enclave.mbuf_pages;
          Buffer.add_string buf ";gpt=";
          add_int buf e.Enclave.gpt_root;
          Buffer.add_string buf ";ept=";
          add_int buf e.Enclave.ept_root;
          Buffer.add_char buf '}')
    (Absdata.enclave_ids d);
  Buffer.add_string buf "|next_eid=";
  add_int buf d.Absdata.next_eid;
  match d.Absdata.os_ept_root with
  | None -> Buffer.add_string buf "|ept=-"
  | Some r ->
      Buffer.add_string buf "|ept=";
      add_int buf r

let mon_string d =
  let buf = Buffer.create 1024 in
  add_mon buf d;
  Buffer.contents buf

let to_string_with ~mon st =
  let st = canonicalize st in
  let buf = Buffer.create (String.length mon + 256) in
  Buffer.add_string buf "active=";
  add_principal buf st.State.active;
  Buffer.add_string buf "|regs=";
  add_regs buf st.State.regs;
  Buffer.add_string buf "|ctx=";
  List.iter
    (fun (p, regs) ->
      add_principal buf p;
      Buffer.add_char buf '{';
      add_regs buf regs;
      Buffer.add_char buf '}')
    (Principal.Map.bindings st.State.ctx);
  Buffer.add_string buf "|oracles=";
  List.iter
    (fun (p, o) ->
      add_principal buf p;
      Buffer.add_char buf '{';
      add_oracle buf o;
      Buffer.add_char buf '}')
    (Principal.Map.bindings st.State.oracles);
  Buffer.add_string buf "|tlb=";
  List.iter
    (fun (p, va_page, (e : Tlb.entry)) ->
      add_principal buf p;
      Buffer.add_char buf '@';
      add_word buf va_page;
      Buffer.add_string buf "->";
      add_word buf e.Tlb.hpa_page;
      Buffer.add_char buf '[';
      add_flags buf e.Tlb.flags;
      Buffer.add_char buf ']')
    (Tlb.to_list st.State.tlb);
  Buffer.add_string buf mon;
  Buffer.contents buf

let to_string st = to_string_with ~mon:(mon_string st.State.mon) st
let digest_with ~mon st = Digest.to_hex (Digest.string (to_string_with ~mon st))
let digest st = digest_with ~mon:(mon_string st.State.mon) st
