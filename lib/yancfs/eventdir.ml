module Path = Vfs.Path
module Fs = Vfs.Fs

type event = {
  seq : int;
  in_port : int;
  reason : Openflow.Of_types.packet_in_reason;
  buffer_id : int32 option;
  total_len : int;
  data : string;
}

(* Sequence numbers must be unique per buffer across publishes; a
   per-(fs-independent) global counter is simplest and keeps ordering
   obvious in listings. *)
let next_seq = ref 0

let subscribe fs ~cred ~root ~switch ~app =
  match Fs.mkdir fs ~cred (Layout.event_buffer ~root ~switch app) with
  | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
  | Error _ as e -> e

let subscribers fs ~root ~switch =
  match Fs.readdir fs ~cred:Vfs.Cred.root (Layout.events_dir ~root switch) with
  | Ok names -> names
  | Error _ -> []

(* Each subscribed buffer with its owner: one crossing, as the listing
   in [subscribers] costs. [events/] itself is followed, as a listing
   follows it; an entry that is a symlink is not a buffer: [fold] does
   not follow it, so its owner is whoever made the link, and publishing
   through it would create root's event directory, and give it away,
   wherever the link points. A file stays one, so that [mkdir] under it
   fails and is reported. *)
let buffers fs ~cred ~root ~switch =
  Result.map
    (fun (_, buffers) -> List.rev buffers)
    (Fs.fold ~follow:true fs ~cred (Layout.events_dir ~root switch) ~init:(true, [])
       (fun (start, acc) path (st : Fs.stat) ->
         match Path.basename path with
         | Some app when not start ->
           let acc = if st.kind = Fs.Symlink then acc else (app, st) :: acc in
           ((false, acc), `Skip_subtree)
         | Some _ | None -> ((false, acc), `Continue)))

let reason_to_string = function
  | Openflow.Of_types.No_match -> "no_match"
  | Openflow.Of_types.Action_explicit -> "action"

let reason_of_string = function
  | "action" -> Openflow.Of_types.Action_explicit
  | _ -> Openflow.Of_types.No_match

let publish ?telemetry fs ~cred ~root ~switch ~in_port ~reason ~buffer_id
    ~total_len ~data =
  let ( let* ) = Result.bind in
  let* apps = buffers fs ~cred ~root ~switch in
  incr next_seq;
  let seq = !next_seq in
  (* Consumers resume the publishing driver's trace by sequence number
     (non-consuming: the same event fans out to many buffers). *)
  Option.iter
    (fun tele ->
      Telemetry.Tracer.stamp (Telemetry.tracer tele) (Layout.trace_key_event seq))
    telemetry;
  List.fold_left
    (fun result (app, (owner : Fs.stat)) ->
      let dir = Layout.event ~root ~switch ~app seq in
      let written =
        let* () = Fs.mkdir fs ~cred dir in
        (* The subscriber removes what it consumes: the event belongs to
           the buffer's owner. *)
        let* () =
          if owner.uid = 0 && owner.gid = 0 then Ok ()
          else Fs.chown fs ~cred dir ~uid:owner.uid ~gid:owner.gid
        in
        let put name v = Fs.write_file fs ~cred (Path.child dir name) v in
        let* () = put "in_port" (string_of_int in_port) in
        let* () = put "reason" (reason_to_string reason) in
        let* () =
          match buffer_id with
          | Some id -> put "buffer_id" (Int32.to_string id)
          | None -> Ok ()
        in
        let* () = put "total_len" (string_of_int total_len) in
        put "data" data
      in
      match result, written with
      | Ok n, Ok () -> Ok (n + 1)
      | Ok _, (Error _ as e) -> e
      | (Error _ as e), _ -> e)
    (Ok 0) apps

let read_event fs ~cred dir seq =
  let get name =
    Result.map String.trim (Fs.read_file fs ~cred (Path.child dir name))
  in
  match get "in_port", get "reason", get "total_len" with
  | Ok in_port_s, Ok reason_s, Ok total_len_s -> (
    match
      ( int_of_string_opt in_port_s,
        int_of_string_opt total_len_s,
        Fs.read_file fs ~cred (Path.child dir "data") )
    with
    | Some in_port, Some total_len, Ok data ->
      let buffer_id =
        match get "buffer_id" with
        | Ok s -> Int32.of_string_opt s
        | Error _ -> None
      in
      Some
        { seq; in_port; reason = reason_of_string reason_s; buffer_id;
          total_len; data }
    | _ -> None)
  | _ -> None

let poll fs ~cred ~root ~switch ~app =
  let buffer = Layout.event_buffer ~root ~switch app in
  match Fs.readdir fs ~cred buffer with
  | Error _ -> []
  | Ok names ->
    List.filter_map
      (fun name ->
        match int_of_string_opt name with
        | None -> None
        | Some seq -> read_event fs ~cred (Path.child buffer name) seq)
      names
    |> List.sort (fun a b -> compare a.seq b.seq)

(* An event is delivered only once its removal succeeds: one whose
   rmdir fails stays in the buffer and is delivered by a later drain,
   so no event is seen twice. *)
let consume fs ~cred ~root ~switch ~app ~on_error =
  List.filter
    (fun e ->
      match
        Fs.rmdir ~recursive:true fs ~cred (Layout.event ~root ~switch ~app e.seq)
      with
      | Ok () -> true
      | Error err -> on_error err; false)
    (poll fs ~cred ~root ~switch ~app)

let frame_of e = Packet.Eth.of_wire e.data
