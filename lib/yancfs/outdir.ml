type request = {
  seq : int;
  buffer_id : int32 option;
  in_port : int option;
  actions : Openflow.Action.t list;
  data : string;
}

let submit yfs ~cred ~switch ?buffer_id ?in_port ~actions ~data () =
  let seq = Yanc_fs.next_packet_out yfs in
  let opt name f = Option.fold ~none:[] ~some:(fun v -> [ name, f v ]) in
  Result.map
    (fun () -> seq)
    (Record.post (Yanc_fs.fs yfs) ~cred
       (Layout.packet_out_dir ~root:(Yanc_fs.root yfs) switch) ~seq
       (opt Schema.buffer_id Int32.to_string buffer_id
       @ opt Schema.in_port string_of_int in_port
       @ Openflow.Action.to_fields actions
       @ if data <> "" then [ Schema.data, data ] else []))

let parse ~seq fields =
  let ( let* ) = Option.bind in
  let* buffer_id = Record.optional Int32.of_string_opt Schema.buffer_id fields in
  let* in_port = Record.optional int_of_string_opt Schema.in_port fields in
  let actions =
    List.filter_map
      (fun (n, v) ->
        if Schema.in_family Schema.action_prefix n then Some (n, String.trim v) else None)
      fields
  in
  let* actions = Result.to_option (Openflow.Action.of_fields actions) in
  Some
    { seq; buffer_id; in_port; actions;
      data = Option.value (List.assoc_opt Schema.data fields) ~default:"" }

let is_field = Schema.is_field Schema.request

let consume fs ~cred ~root ~switch ~on_error =
  Record.take fs ~cred (Layout.packet_out_dir ~root switch)
    ~select:is_field
    ~parse ~on_error
