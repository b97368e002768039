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
  ignore (Fs.mkdir_p base ~cred:Vfs.Cred.root root);
  ignore (Schema.attach base ~root);
  (* The schema hook fires on mkdir; an already-existing root needs the
     top-level dirs ensured by hand. *)
  List.iter
    (fun p -> ignore (ensure_dir base ~cred:Vfs.Cred.root p))
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

let add_switch t ~name ~dpid ~protocol ~n_buffers ~n_tables ~capabilities
    ~actions =
  let cred = Vfs.Cred.root in
  let dir = Layout.switch ~root:t.root name in
  let* () = ensure_dir t.fs ~cred dir in
  let attr file v = Fs.write_file t.fs ~cred (Layout.switch_attr ~root:t.root name file) v in
  let* () = attr "id" (Printf.sprintf "%Ld" dpid) in
  let* () = attr "protocol" protocol in
  let* () = attr "num_buffers" (string_of_int n_buffers) in
  let* () = attr "num_tables" (string_of_int n_tables) in
  let* () = attr "capabilities" (String.concat "\n" capabilities) in
  attr "actions" (String.concat "\n" actions)

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

let write_switch_counters t ~switch counters =
  let cred = Vfs.Cred.root in
  let dir = Layout.switch_counters ~root:t.root switch in
  List.fold_left
    (fun acc (name, value) ->
      let* () = acc in
      Fs.write_file t.fs ~cred (Path.child dir name) (Int64.to_string value))
    (Ok ()) counters

(* --- ports ------------------------------------------------------------------- *)

let bool_file v = if v then "1" else "0"

let parse_bool_file s =
  match String.trim s with
  | "1" | "true" | "yes" -> true
  | _ -> false

let set_port t ~switch (info : Port_info.t) =
  let cred = Vfs.Cred.root in
  let dir = Layout.port ~root:t.root ~switch info.port_no in
  let existed = Fs.exists t.fs ~cred dir in
  let* () = ensure_dir t.fs ~cred dir in
  let put file v = Fs.write_file t.fs ~cred (Path.child dir file) v in
  let* () = put "hw_addr" (Packet.Mac.to_string info.hw_addr) in
  let* () = put "name" info.name in
  let* () = put "speed" (string_of_int info.speed_mbps) in
  let* () = put Layout.state_link_down (bool_file info.link_down) in
  if not existed then put Layout.config_port_down (bool_file info.admin_down)
  else Ok ()

let remove_port t ~switch n =
  Fs.rmdir ~recursive:true t.fs ~cred:Vfs.Cred.root
    (Layout.port ~root:t.root ~switch n)

let port_numbers t ~cred switch =
  match Fs.readdir t.fs ~cred (Layout.ports_dir ~root:t.root switch) with
  | Error _ -> []
  | Ok names -> List.filter_map Layout.port_no_of_name names |> List.sort compare

let read_port t ~cred ~switch n =
  let dir = Layout.port ~root:t.root ~switch n in
  let get file = Fs.read_file t.fs ~cred (Path.child dir file) in
  let* hw = get "hw_addr" in
  let* name = get "name" in
  let* speed = get "speed" in
  let* down = get Layout.config_port_down in
  let* link = get Layout.state_link_down in
  match Packet.Mac.of_string (String.trim hw), int_of_string_opt (String.trim speed) with
  | Some hw_addr, Some speed_mbps ->
    Ok
      (Port_info.make ~admin_down:(parse_bool_file down)
         ~link_down:(parse_bool_file link) ~speed_mbps ~name:(String.trim name)
         ~port_no:n ~hw_addr ())
  | _ -> Error Vfs.Errno.EINVAL

let write_port_counters t ~switch ~port (s : Port_stats.t) =
  let cred = Vfs.Cred.root in
  let dir = Layout.port_counters ~root:t.root ~switch port in
  let* () = ensure_dir t.fs ~cred dir in
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      Fs.write_file t.fs ~cred (Path.child dir name) (Int64.to_string v))
    (Ok ())
    [ "rx_packets", s.rx_packets; "tx_packets", s.tx_packets;
      "rx_bytes", s.rx_bytes; "tx_bytes", s.tx_bytes;
      "rx_dropped", s.rx_dropped; "tx_dropped", s.tx_dropped ]

let set_peer t ~cred ~switch ~port ~peer =
  let link = Layout.port_peer ~root:t.root ~switch port in
  let* () =
    match Fs.lstat t.fs ~cred link with
    | Ok _ -> Fs.unlink t.fs ~cred link
    | Error Vfs.Errno.ENOENT -> Ok ()
    | Error _ as e -> Result.map (fun _ -> ()) e
  in
  match peer with
  | None -> Ok ()
  | Some (psw, pport) ->
    let target = Path.to_string (Layout.port ~root:t.root ~switch:psw pport) in
    Fs.symlink t.fs ~cred ~target link

let peer_of t ~cred ~switch ~port =
  match Fs.readlink t.fs ~cred (Layout.port_peer ~root:t.root ~switch port) with
  | Error _ -> None
  | Ok target -> (
    match Path.of_string target with
    | Error _ -> None
    | Ok p -> (
      match Option.map Path.components (Path.strip_prefix ~prefix:t.root p) with
      | Some [ "switches"; sw; "ports"; pname ] ->
        Option.map (fun n -> sw, n) (Layout.port_no_of_name pname)
      | Some _ | None -> None))

(* --- flows -------------------------------------------------------------------- *)

let create_flow t ~cred ~switch ~name flow =
  let tracer = Telemetry.tracer t.telemetry in
  Telemetry.Tracer.span tracer ~stage:"yancfs.flow_write" (fun () ->
      let dir = Layout.flow ~root:t.root ~switch name in
      let* () = Fs.mkdir t.fs ~cred dir in
      let* () = Flowdir.write t.fs ~cred dir flow in
      (* Hand the trace to whichever driver reconciles this directory. *)
      Telemetry.Tracer.stamp tracer (Layout.trace_key_flow ~switch name);
      Ok ())

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
  Flowdir.read t.fs ~cred (Layout.flow ~root:t.root ~switch name)

let delete_flow t ~cred ~switch name =
  Fs.rmdir ~recursive:true t.fs ~cred (Layout.flow ~root:t.root ~switch name)

(* --- hosts -------------------------------------------------------------------- *)

let upsert_host t ~cred ~name ~mac ~ip ?attached_to () =
  let dir = Layout.host ~root:t.root name in
  let* () = ensure_dir t.fs ~cred dir in
  let put file v = Fs.write_file t.fs ~cred (Path.child dir file) v in
  let* () = put "mac" (Packet.Mac.to_string mac) in
  let* () =
    match ip with
    | Some addr -> put "ip" (Packet.Ipv4_addr.to_string addr)
    | None -> Ok ()
  in
  match attached_to with
  | Some (sw, port) ->
    let link = Path.child dir "attached_to" in
    let* () =
      match Fs.lstat t.fs ~cred link with
      | Ok _ -> Fs.unlink t.fs ~cred link
      | Error _ -> Ok ()
    in
    Fs.symlink t.fs ~cred
      ~target:(Path.to_string (Layout.port ~root:t.root ~switch:sw port))
      link
  | None -> Ok ()

let host_names t ~cred =
  match Fs.readdir t.fs ~cred (Layout.hosts_dir ~root:t.root) with
  | Ok names -> names
  | Error _ -> []

let read_host t ~cred name =
  let dir = Layout.host ~root:t.root name in
  let* mac_s = Fs.read_file t.fs ~cred (Path.child dir "mac") in
  match Packet.Mac.of_string (String.trim mac_s) with
  | None -> Error Vfs.Errno.EINVAL
  | Some mac ->
    let ip =
      match Fs.read_file t.fs ~cred (Path.child dir "ip") with
      | Ok s -> Packet.Ipv4_addr.of_string (String.trim s)
      | Error _ -> None
    in
    let attached =
      match Fs.readlink t.fs ~cred (Path.child dir "attached_to") with
      | Error _ -> None
      | Ok target -> (
        match Path.of_string target with
        | Error _ -> None
        | Ok p -> (
          match Option.map Path.components (Path.strip_prefix ~prefix:t.root p) with
          | Some [ "switches"; sw; "ports"; pname ] ->
            Option.map (fun n -> sw, n) (Layout.port_no_of_name pname)
          | Some _ | None -> None))
    in
    Ok (mac, ip, attached)
