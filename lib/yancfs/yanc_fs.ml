module Path = Vfs.Path
module Fs = Vfs.Fs
module Port_info = Openflow.Of_types.Port_info
module Port_stats = Openflow.Of_types.Port_stats

type t = {
  fs : Fs.t;
  root : Path.t;
  telemetry : Telemetry.t;
  (* The packet-in fast path (one ring per mount, shared by views). *)
  pktin : Pktin.t;
}

let ( let* ) = Result.bind

let fs t = t.fs

let root t = t.root

let telemetry t = t.telemetry

let pktin t = t.pktin

let ensure_dir fs ~cred path =
  match Fs.mkdir fs ~cred path with
  | Ok () | Error Vfs.Errno.EEXIST -> Ok ()
  | Error _ as e -> e

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
  (* The schema's mkdir policy gives new directories their children;
     the root was made before it, or already existed, so its top-level
     dirs are ensured by hand. *)
  List.iter
    (fun p -> Checked.report base "mount" p (ensure_dir base ~cred:Vfs.Cred.root p))
    [ Layout.hosts_dir ~root; Layout.switches_dir ~root; Layout.views_dir ~root ];
  { fs = base; root; telemetry; pktin = Pktin.create ~telemetry () }

let in_view t ~cred name =
  let vroot = Layout.view ~root:t.root name in
  let* () = ensure_dir t.fs ~cred vroot in
  (* Auto-children may not exist if the view pre-dated schema attach. *)
  let* () = ensure_dir t.fs ~cred (Layout.hosts_dir ~root:vroot) in
  let* () = ensure_dir t.fs ~cred (Layout.switches_dir ~root:vroot) in
  let* () = ensure_dir t.fs ~cred (Layout.views_dir ~root:vroot) in
  Ok { fs = t.fs; root = vroot; telemetry = t.telemetry; pktin = t.pktin }

let tree t =
  match Fs.tree t.fs ~cred:Vfs.Cred.root t.root with
  | Ok s -> s
  | Error e -> Printf.sprintf "<%s>" (Vfs.Errno.to_string e)

(* --- switches --------------------------------------------------------------- *)

let switch_name_of_dpid dpid = Printf.sprintf "sw%Ld" dpid

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
    [ "id", Printf.sprintf "%Ld" dpid; "protocol", protocol;
      "num_buffers", string_of_int n_buffers; "num_tables", string_of_int n_tables;
      "capabilities", String.concat "\n" capabilities;
      "actions", String.concat "\n" actions ]

let remove_switch t name =
  Fs.rmdir ~recursive:true t.fs ~cred:Vfs.Cred.root
    (Layout.switch ~root:t.root name)

let switch_names t =
  match
    Fs.readdir t.fs ~cred:Vfs.Cred.root (Layout.switches_dir ~root:t.root)
  with
  | Ok names -> names
  | Error _ -> []

let read_attr t ~cred name file =
  match Fs.read_file t.fs ~cred (Layout.switch_attr ~root:t.root name file) with
  | Ok v -> Some (String.trim v)
  | Error _ -> None

let switch_dpid t name =
  Option.bind (read_attr t ~cred:Vfs.Cred.root name "id") Int64.of_string_opt

let switch_protocol t name = read_attr t ~cred:Vfs.Cred.root name "protocol"

let set_switch_status t ~switch status =
  Fs.write_file t.fs ~cred:Vfs.Cred.root
    (Layout.switch_status ~root:t.root switch) status

let switch_status t name = read_attr t ~cred:Vfs.Cred.root name "status"

(* --- ports ------------------------------------------------------------------- *)

let bool_file v = if v then "1" else "0"

let parse_bool_file s =
  match String.trim s with
  | "1" | "true" | "yes" -> true
  | _ -> false

let set_port t ~cred ~switch (info : Port_info.t) =
  write_record t ~cred (Layout.port ~root:t.root ~switch info.port_no)
    [ "hw_addr", Packet.Mac.to_string info.hw_addr; "name", info.name;
      "speed", string_of_int info.speed_mbps;
      Layout.state_link_down, bool_file info.link_down ]
    ~if_made:[ Layout.config_port_down, bool_file info.admin_down ]

let remove_port t ~switch n =
  Fs.rmdir ~recursive:true t.fs ~cred:Vfs.Cred.root
    (Layout.port ~root:t.root ~switch n)

let port_numbers t ~cred switch =
  match Fs.readdir t.fs ~cred (Layout.ports_dir ~root:t.root switch) with
  | Error _ -> []
  | Ok names -> List.filter_map Layout.port_no_of_name names |> List.sort compare

let read_port t ~cred ~switch n =
  let* d = Fs.opendir t.fs ~cred (Layout.port ~root:t.root ~switch n) in
  let* fields =
    Record.read_named t.fs ~cred d
      [ "hw_addr"; "name"; "speed"; Layout.config_port_down; Layout.state_link_down ]
  in
  let field name = Record.required Option.some name fields in
  match
    ( Record.required Packet.Mac.of_string "hw_addr" fields, field "name",
      Record.required int_of_string_opt "speed" fields,
      field Layout.config_port_down, field Layout.state_link_down )
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
  not (set Layout.config_port_down || set Layout.state_link_down)

let write_port_counters t ~switch ~port (s : Port_stats.t) =
  write_record t ~cred:Vfs.Cred.root (Layout.port_counters ~root:t.root ~switch port)
    (List.map
       (fun (name, v) -> (name, Int64.to_string v))
       [ "rx_packets", s.rx_packets; "tx_packets", s.tx_packets;
         "rx_bytes", s.rx_bytes; "tx_bytes", s.tx_bytes;
         "rx_dropped", s.rx_dropped; "tx_dropped", s.tx_dropped ])

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
  relink t ~cred (Layout.port_peer ~root:t.root ~switch port) peer

(* The (switch, port) a symlink at [link] points at, if it names a port
   directory under this root: a [peer] or a host's [attached_to]. *)
let port_at t ~cred link =
  match Result.bind (Fs.readlink t.fs ~cred link) Path.of_string with
  | Error _ -> None
  | Ok p -> (
    match Option.map Path.components (Path.strip_prefix ~prefix:t.root p) with
    | Some [ "switches"; sw; "ports"; pname ] ->
      Option.map (fun n -> sw, n) (Layout.port_no_of_name pname)
    | Some _ | None -> None)

let peer_of t ~cred ~switch ~port =
  port_at t ~cred (Layout.port_peer ~root:t.root ~switch port)

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

let flow_names t ~cred switch =
  match Fs.readdir t.fs ~cred (Layout.flows_dir ~root:t.root switch) with
  | Ok names -> names
  | Error _ -> []

module Name_set = Set.Make (String)

let flow_name_set t ~cred switch =
  match Fs.readdir t.fs ~cred (Layout.flows_dir ~root:t.root switch) with
  | Ok names -> Name_set.of_list names
  | Error _ -> Name_set.empty

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
      (("mac", Packet.Mac.to_string mac)
      :: Option.fold ~none:[] ~some:(fun a -> [ "ip", Packet.Ipv4_addr.to_string a ]) ip)
  in
  if attached_to = None then Ok ()
  else relink t ~cred (Path.child dir "attached_to") attached_to

let host_names t ~cred =
  match Fs.readdir t.fs ~cred (Layout.hosts_dir ~root:t.root) with
  | Ok names -> names
  | Error _ -> []

let read_host t ~cred name =
  let dir = Layout.host ~root:t.root name in
  let* d = Fs.opendir t.fs ~cred dir in
  let* fields = Record.read_named t.fs ~cred d [ "mac"; "ip" ] in
  match Record.required Packet.Mac.of_string "mac" fields with
  | None -> Error Vfs.Errno.EINVAL
  | Some mac ->
    let ip = Option.join (Record.optional Packet.Ipv4_addr.of_string "ip" fields) in
    Ok (mac, ip, port_at t ~cred (Path.child dir "attached_to"))
