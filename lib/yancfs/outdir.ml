type request = {
  seq : int;
  buffer_id : int32 option;
  in_port : int option;
  actions : Openflow.Action.t list;
  data : string;
}

let next_seq = ref 0

let submit fs ~cred ~root ~switch ?buffer_id ?in_port ~actions ~data () =
  incr next_seq;
  let seq = !next_seq in
  let opt name f = Option.fold ~none:[] ~some:(fun v -> [ name, f v ]) in
  Result.map
    (fun () -> seq)
    (Record.post fs ~cred (Layout.packet_out_dir ~root switch) ~seq
       (opt "buffer_id" Int32.to_string buffer_id
       @ opt "in_port" string_of_int in_port
       @ Openflow.Action.to_fields actions
       @ if data <> "" then [ "data", data ] else []))

let is_action name = String.starts_with ~prefix:"action." name

let parse ~seq fields =
  let ( let* ) = Option.bind in
  let* buffer_id = Record.optional Int32.of_string_opt "buffer_id" fields in
  let* in_port = Record.optional int_of_string_opt "in_port" fields in
  let actions =
    List.filter_map
      (fun (n, v) -> if is_action n then Some (n, String.trim v) else None)
      fields
  in
  let* actions = Result.to_option (Openflow.Action.of_fields actions) in
  Some
    { seq; buffer_id; in_port; actions;
      data = Option.value (List.assoc_opt "data" fields) ~default:"" }

let consume fs ~cred ~root ~switch ~on_error =
  Record.take fs ~cred (Layout.packet_out_dir ~root switch)
    ~select:(fun n -> is_action n || List.mem n [ "buffer_id"; "in_port"; "data" ])
    ~parse ~on_error
