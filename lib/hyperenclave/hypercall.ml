type status = Success | Invalid_param | No_memory | Bad_state

let status_code = function
  | Success -> 0L
  | Invalid_param -> 1L
  | No_memory -> 2L
  | Bad_state -> 3L

let status_of_code = function
  | 0L -> Some Success
  | 1L -> Some Invalid_param
  | 2L -> Some No_memory
  | 3L -> Some Bad_state
  | _ -> None

let status_equal (a : status) (b : status) = a = b

let pp_status fmt s =
  Format.pp_print_string fmt
    (match s with
    | Success -> "success"
    | Invalid_param -> "invalid-param"
    | No_memory -> "no-memory"
    | Bad_state -> "bad-state")

type 'a outcome = { d : Absdata.t; status : status; value : 'a }

let fail d status value = { d; status; value }

(* A failed low spec: its status, or [Invalid_param] where the spec is
   undefined on the input. *)
let failed d0 value spec_status =
  let status =
    match spec_status with
    | Ok code -> Option.value ~default:Invalid_param (status_of_code code)
    | Error _ -> Invalid_param
  in
  (* The code keeps what a failed call changed (frames spent on partial
     tables); the model rolls back to the pre-state (ROADMAP item 14). *)
  fail d0 status value

let with_enclave d0 ~eid value k =
  match Absdata.find_enclave d0 eid with
  | Error _ -> fail d0 Invalid_param value
  | Ok enclave -> k enclave

let create (d0 : Absdata.t) ~elrange_base ~elrange_pages ~mbuf_va =
  (* the code's page count is a u64: a negative one has no meaning *)
  if elrange_pages < 0 then fail d0 Invalid_param 0
  else
    match
      Mem_spec.hc_create d0 ~elrange_base ~elrange_pages:(Int64.of_int elrange_pages)
        ~mbuf_va
    with
    | Ok (d, 0L, gpt_root, ept_root) ->
        let eid = d.Absdata.next_eid in
        let enclave =
          {
            Enclave.eid;
            state = Enclave.Created;
            elrange_base;
            elrange_pages;
            mbuf_va;
            mbuf_pages = d.Absdata.layout.Layout.mbuf_pages;
            gpt_root = Int64.to_int gpt_root;
            ept_root = Int64.to_int ept_root;
          }
        in
        let d = Absdata.update_enclave { d with Absdata.next_eid = eid + 1 } enclave in
        { d; status = Success; value = eid }
    | result -> failed d0 0 (Result.map (fun (_, status, _, _) -> status) result)

let page_call spec (d0 : Absdata.t) ~eid ~va =
  with_enclave d0 ~eid () (fun enclave ->
      match spec d0 enclave ~va with
      | Ok (d, 0L) -> { d; status = Success; value = () }
      | result -> failed d0 () (Result.map snd result))

let add_page = page_call Mem_spec.add_page
let remove_page = page_call Mem_spec.remove_page

let init_done (d0 : Absdata.t) ~eid =
  with_enclave d0 ~eid () (fun enclave ->
      if not (Enclave.lifecycle_equal enclave.Enclave.state Enclave.Created) then
        fail d0 Bad_state ()
      else
        let d =
          Absdata.update_enclave d0 { enclave with Enclave.state = Enclave.Initialized }
        in
        { d; status = Success; value = () })
