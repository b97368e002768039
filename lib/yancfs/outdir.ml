module Path = Vfs.Path
module Fs = Vfs.Fs

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
  let dir = Layout.packet_out ~root ~switch seq in
  let ( let* ) = Result.bind in
  let* () = Fs.mkdir fs ~cred dir in
  let put name v = Fs.write_file fs ~cred (Path.child dir name) v in
  let* () =
    match buffer_id with
    | Some id -> put "buffer_id" (Int32.to_string id)
    | None -> Ok ()
  in
  let* () =
    match in_port with
    | Some p -> put "in_port" (string_of_int p)
    | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (name, value) ->
        let* () = acc in
        put name value)
      (Ok ())
      (Openflow.Action.to_fields actions)
  in
  let* () = if data <> "" then put "data" data else Ok () in
  Ok seq

let read_request fs ~cred dir seq =
  match Fs.readdir fs ~cred dir with
  | Error _ -> None
  | Ok names ->
    let get name =
      match Fs.read_file fs ~cred (Path.child dir name) with
      | Ok v -> Some v
      | Error _ -> None
    in
    let action_fields =
      List.filter_map
        (fun n ->
          if String.length n > 7 && String.sub n 0 7 = "action." then
            Option.map (fun v -> n, String.trim v) (get n)
          else None)
        names
    in
    (match Openflow.Action.of_fields action_fields with
    | Error _ -> None
    | Ok actions ->
      Some
        { seq;
          buffer_id = Option.bind (get "buffer_id") (fun s -> Int32.of_string_opt (String.trim s));
          in_port = Option.bind (get "in_port") (fun s -> int_of_string_opt (String.trim s));
          actions;
          data = Option.value (get "data") ~default:"" })

(* A request goes out only once its removal succeeds: one whose rmdir
   fails stays in the spool and is retried whole on a later drain, so
   no drainer, old or new, can send it twice. *)
let consume fs ~cred ~root ~switch ~on_error =
  Result.map
    (fun names ->
      let seqs = List.filter_map int_of_string_opt names |> List.sort compare in
      List.filter_map
        (fun seq ->
          let dir = Layout.packet_out ~root ~switch seq in
          let req = read_request fs ~cred dir seq in
          match Fs.rmdir ~recursive:true fs ~cred dir with
          | Ok () -> req
          | Error e -> on_error e; None)
        seqs)
    (Fs.readdir fs ~cred (Layout.packet_out_dir ~root switch))

let pending fs ~cred ~root ~switch =
  Result.map
    (fun names -> List.length (List.filter_map int_of_string_opt names))
    (Fs.readdir fs ~cred (Layout.packet_out_dir ~root switch))
