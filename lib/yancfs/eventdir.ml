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

let publish ?telemetry yfs ~cred ~switch ~in_port ~reason ~buffer_id ~total_len
    ~data =
  let ( let* ) = Result.bind in
  let fs = Yanc_fs.fs yfs and root = Yanc_fs.root yfs in
  let* apps = buffers fs ~cred ~root ~switch in
  let seq = Yanc_fs.next_event yfs in
  (* Consumers resume the publishing driver's trace by sequence number
     (non-consuming: the same event fans out to many buffers). *)
  Option.iter
    (fun tele ->
      Telemetry.Tracer.stamp (Telemetry.tracer tele) (Layout.trace_key_event seq))
    telemetry;
  let fields =
    [ Schema.in_port, string_of_int in_port; Schema.reason, reason_to_string reason ]
    @ Option.fold ~none:[] ~some:(fun id -> [ Schema.buffer_id, Int32.to_string id ]) buffer_id
    @ [ Schema.total_len, string_of_int total_len; Schema.data, data ]
  in
  List.fold_left
    (fun result (app, (st : Fs.stat)) ->
      (* The subscriber removes what it consumes: the event belongs to
         the buffer's owner. *)
      let owner = if st.uid = 0 && st.gid = 0 then None else Some (st.uid, st.gid) in
      match
        result,
        Record.post fs ~cred (Layout.event_buffer ~root ~switch app) ~seq ?owner fields
      with
      | Ok n, Ok () -> Ok (n + 1)
      | Ok _, (Error _ as e) -> e
      | (Error _ as e), _ -> e)
    (Ok 0) apps

let parse ~seq fields =
  let ( let* ) = Option.bind in
  let* in_port = Record.required int_of_string_opt Schema.in_port fields in
  let* reason = Record.required Option.some Schema.reason fields in
  let* total_len = Record.required int_of_string_opt Schema.total_len fields in
  let* buffer_id = Record.optional Int32.of_string_opt Schema.buffer_id fields in
  let* data = List.assoc_opt Schema.data fields in
  Some { seq; in_port; reason = reason_of_string reason; buffer_id; total_len; data }

let is_field = Schema.is_field Schema.event

let consume fs ~cred ~root ~switch ~app ~on_error =
  Record.take fs ~cred (Layout.event_buffer ~root ~switch app)
    ~select:is_field
    ~parse ~on_error

let frame_of e = Packet.Eth.of_wire e.data
