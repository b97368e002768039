module Path = Vfs.Path
module Fs = Vfs.Fs
module Port_info = Openflow.Of_types.Port_info
module Port_stats = Openflow.Of_types.Port_stats

type t = {
  fs : Fs.t;
  root : Path.t;
  telemetry : Telemetry.t;
  (* Shared by the mount's views: the packet-in fast path (one ring per
     mount) and the spools' record numbers. *)
  pktin : Pktin.t;
  seqs : seqs;
}

(* The number each kind of spool last gave a record. *)
and seqs = { mutable packet_out : int; mutable event : int }

let ( let* ) = Result.bind

let fs t = t.fs

let root t = t.root

let telemetry t = t.telemetry

let pktin t = t.pktin

let next_packet_out { seqs = s; _ } =
  s.packet_out <- s.packet_out + 1;
  s.packet_out

let next_event { seqs = s; _ } =
  s.event <- s.event + 1;
  s.event

let set_seq_base { seqs = s; _ } base =
  s.packet_out <- base;
  s.event <- base

let ensure_dir fs ~cred path =
  match Fs.mkdir fs ~cred path with
  | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
  | Error _ as e -> e

(* The children the schema gives a yanc root. The mkdir policy makes
   them with a new root; a root made before the policy was attached, or
   that already existed, gets them here. *)
let root_children fs ~cred root =
  List.fold_left
    (fun acc name ->
      let* () = acc in
      ensure_dir fs ~cred (Path.child root name))
    (Ok ()) Schema.root.makes

let create ?(root = Layout.default_root) ?telemetry base =
  let telemetry =
    (* A bare Yanc_fs (tests, benches) gets a quiet instance over its
       file system's registry; the controller passes the shared one
       with tracing on. *)
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~registry:(Fs.registry base) ~tracing:false ()
  in
  Checked.report base "mount" root (Fs.mkdir_p base ~cred:Vfs.Cred.root root);
  Schema.attach base ~root;
  Checked.report base "mount" root (root_children base ~cred:Vfs.Cred.root root);
  { fs = base; root; telemetry; pktin = Pktin.create ~telemetry ();
    seqs = { packet_out = 0; event = 0 } }

let in_view t ~cred name =
  let vroot = Layout.view ~root:t.root name in
  let* () = ensure_dir t.fs ~cred vroot in
  let* () = root_children t.fs ~cred vroot in
  Ok { t with root = vroot }

let tree t =
  match Fs.tree t.fs ~cred:Vfs.Cred.root t.root with
  | Ok s -> s
  | Error e -> Printf.sprintf "<%s>" (Vfs.Errno.to_string e)

(* --- switches --------------------------------------------------------------- *)

let switch_name_of_dpid dpid = Schema.numbered Schema.switch (Int64.to_string dpid)

(* Make (or keep) the directory at [path], open it and write [fields]
   into it, then [if_made] if the directory was just made: one walk,
   then one call per field. *)
let write_record t ~cred ?(if_made = []) path fields =
  let* made =
    match Fs.mkdir t.fs ~cred path with
    | Ok () -> Ok true
    | Error Vfs.Errno.EEXIST -> Ok false
    | Error _ as e -> e
  in
  let* d = Fs.opendir t.fs ~cred path in
  Record.write t.fs ~cred d (if made then fields @ if_made else fields)

let add_switch t ~cred ~name ~dpid ~protocol ~n_buffers ~n_tables ~capabilities
    ~actions =
  write_record t ~cred (Layout.switch ~root:t.root name)
    (List.combine Schema.switch.fields
       [ Int64.to_string dpid; protocol; string_of_int n_buffers; string_of_int n_tables;
         String.concat "\n" capabilities; String.concat "\n" actions ])

let remove_switch t name =
  Fs.rmdir ~recursive:true t.fs ~cred:Vfs.Cred.root
    (Layout.switch ~root:t.root name)

(* A typed directory's entries; none when it cannot be listed. *)
let entries t ~cred dir = Result.value (Fs.readdir t.fs ~cred dir) ~default:[]

let switch_names t = entries t ~cred:Vfs.Cred.root (Layout.switches_dir ~root:t.root)

let read_attr t ~cred name file =
  match Fs.read_file t.fs ~cred (Layout.switch_attr ~root:t.root name file) with
  | Ok v -> Some (String.trim v)
  | Error _ -> None

let switch_dpid t name =
  Option.bind (read_attr t ~cred:Vfs.Cred.root name Schema.id) Int64.of_string_opt

let switch_protocol t name = read_attr t ~cred:Vfs.Cred.root name Schema.protocol

let set_switch_status t ~switch status =
  Fs.write_file t.fs ~cred:Vfs.Cred.root
    (Layout.switch_attr ~root:t.root switch Schema.status) status

let switch_status t name = read_attr t ~cred:Vfs.Cred.root name Schema.status

(* --- ports ------------------------------------------------------------------- *)

let bool_file v = if v then "1" else "0"

let parse_bool_file s =
  match String.trim s with
  | "1" | "true" | "yes" -> true
  | _ -> false

let set_port t ~cred ~switch (info : Port_info.t) =
  write_record t ~cred (Layout.port ~root:t.root ~switch info.port_no)
    [ Schema.hw_addr, Packet.Mac.to_string info.hw_addr; Schema.port_label, info.name;
      Schema.speed, string_of_int info.speed_mbps;
      Schema.state_link_down, bool_file info.link_down ]
    ~if_made:[ Schema.config_port_down, bool_file info.admin_down ]

let remove_port t ~switch n =
  Fs.rmdir ~recursive:true t.fs ~cred:Vfs.Cred.root
    (Layout.port ~root:t.root ~switch n)

let port_numbers t ~cred switch =
  List.filter_map Layout.port_no_of_name (entries t ~cred (Layout.ports_dir ~root:t.root switch))
  |> List.sort compare

let read_port t ~cred ~switch n =
  let* d = Fs.opendir t.fs ~cred (Layout.port ~root:t.root ~switch n) in
  let* fields = Record.read_named t.fs ~cred d Schema.port.fields in
  let field name = Record.required Option.some name fields in
  match
    ( Record.required Packet.Mac.of_string Schema.hw_addr fields, field Schema.port_label,
      Record.required int_of_string_opt Schema.speed fields,
      field Schema.config_port_down, field Schema.state_link_down )
  with
  | Some hw_addr, Some name, Some speed_mbps, Some down, Some link ->
    Ok
      (Port_info.make ~admin_down:(parse_bool_file down)
         ~link_down:(parse_bool_file link) ~speed_mbps ~name ~port_no:n ~hw_addr ())
  | _ -> Error Vfs.Errno.EINVAL

let port_up t ~cred ~switch n =
  let set file =
    Result.fold ~ok:parse_bool_file ~error:(fun _ -> true)
      (Fs.read_file t.fs ~cred (Layout.port_attr ~root:t.root ~switch ~port:n file))
  in
  not (set Schema.config_port_down || set Schema.state_link_down)

let write_port_counters t ~switch ~port (s : Port_stats.t) =
  write_record t ~cred:Vfs.Cred.root (Layout.port_counters ~root:t.root ~switch port)
    (List.combine Schema.port_counters.fields
       (List.map Int64.to_string
          [ s.rx_packets; s.tx_packets; s.rx_bytes; s.tx_bytes; s.rx_dropped; s.tx_dropped ]))

(* Remove the symlink [link], then point it at [port]'s directory, if
   any: a port's [peer] or a host's [attached_to]. *)
let relink t ~cred link port =
  let* () =
    match Fs.lstat t.fs ~cred link with
    | Ok _ -> Fs.unlink t.fs ~cred link
    | Error Vfs.Errno.ENOENT -> Ok ()
    | Error _ as e -> Result.map (fun _ -> ()) e
  in
  match port with
  | None -> Ok ()
  | Some (switch, n) ->
    Fs.symlink t.fs ~cred ~target:(Path.to_string (Layout.port ~root:t.root ~switch n)) link

let set_peer t ~cred ~switch ~port ~peer =
  relink t ~cred (Layout.port_attr ~root:t.root ~switch ~port Schema.peer) peer

(* The (switch, port) a symlink at [link] points at, if it names a port
   of this root's own switches: a [peer] or a host's [attached_to]. The
   schema's symlink rule made the target a port directory. *)
let port_at t ~cred link =
  match Result.bind (Fs.readlink t.fs ~cred link) Path.of_string with
  | Error _ -> None
  | Ok p -> (
    match Schema.walk_to ~root:t.root p Schema.port with
    | [ pname; sw ] -> Option.map (fun n -> sw, n) (Layout.port_no_of_name pname)
    | _ -> None)

let peer_of t ~cred ~switch ~port =
  port_at t ~cred (Layout.port_attr ~root:t.root ~switch ~port Schema.peer)

(* --- flows -------------------------------------------------------------------- *)

let open_flow t ~cred ~switch name =
  Fs.opendir t.fs ~cred (Layout.flow ~root:t.root ~switch name)

let open_flows t ~cred switch =
  Fs.opendir t.fs ~cred (Layout.flows_dir ~root:t.root switch)

let create_flow t ~cred ~switch ~name flow =
  let tracer = Telemetry.tracer t.telemetry in
  Telemetry.Tracer.span tracer ~stage:"yancfs.flow_write" (fun () ->
      let dir = Layout.flow ~root:t.root ~switch name in
      let* () = Fs.mkdir t.fs ~cred dir in
      let* d = Fs.opendir t.fs ~cred dir in
      let* () = Flowdir.write t.fs ~cred d flow in
      (* Hand the trace to whichever driver reconciles this directory. *)
      Telemetry.Tracer.stamp tracer (Layout.trace_key_flow ~switch name);
      Ok ())

let upsert_flow t ~cred ~switch ~name flow =
  match create_flow t ~cred ~switch ~name flow with
  | Ok () -> Ok ()
  | Error Vfs.Errno.EEXIST -> (
    (* Update in place, preserving the version chain. *)
    match open_flow t ~cred ~switch name with
    | Error e -> Error (Vfs.Errno.message e)
    | Ok d ->
      Result.map ignore
        (Flowdir.update t.fs ~cred d (fun old ->
             { flow with Flowdir.version = old.Flowdir.version })))
  | Error e -> Error (Vfs.Errno.message e)

let flow_names t ~cred switch = entries t ~cred (Layout.flows_dir ~root:t.root switch)

module Name_set = Set.Make (String)

let flow_name_set t ~cred switch = Name_set.of_list (flow_names t ~cred switch)

let read_flow t ~cred ~switch name =
  match open_flow t ~cred ~switch name with
  | Ok d -> Flowdir.read t.fs ~cred d
  | Error e -> Error (Vfs.Errno.message e)

let delete_flow t ~cred ~switch name =
  Fs.rmdir ~recursive:true t.fs ~cred (Layout.flow ~root:t.root ~switch name)

(* --- hosts -------------------------------------------------------------------- *)

let upsert_host t ~cred ~name ~mac ~ip ?attached_to () =
  let dir = Layout.host ~root:t.root name in
  let* () =
    write_record t ~cred dir
      ((Schema.mac, Packet.Mac.to_string mac)
      :: Option.fold ~none:[] ~some:(fun a -> [ Schema.ip, Packet.Ipv4_addr.to_string a ]) ip)
  in
  if attached_to = None then Ok ()
  else relink t ~cred (Path.child dir Schema.attached_to) attached_to

let host_names t ~cred = entries t ~cred (Layout.hosts_dir ~root:t.root)

let read_host t ~cred name =
  let dir = Layout.host ~root:t.root name in
  let* d = Fs.opendir t.fs ~cred dir in
  let* fields = Record.read_named t.fs ~cred d Schema.host.fields in
  match Record.required Packet.Mac.of_string Schema.mac fields with
  | None -> Error Vfs.Errno.EINVAL
  | Some mac ->
    let ip = Option.join (Record.optional Packet.Ipv4_addr.of_string Schema.ip fields) in
    Ok (mac, ip, port_at t ~cred (Path.child dir Schema.attached_to))
