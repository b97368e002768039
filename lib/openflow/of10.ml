module P = Packet
module W = P.Wire.W
module R = P.Wire.R

let version = 0x01

open Msg

(* --- message type numbers (OF 1.0 spec) ---------------------------------- *)

let t_hello = 0
and t_error = 1
and t_echo_req = 2
and t_echo_rep = 3
and t_features_req = 5
and t_features_rep = 6
and t_packet_in = 10
and t_flow_removed = 11
and t_port_status = 12
and t_packet_out = 13
and t_flow_mod = 14
and t_port_mod = 15
and t_stats_req = 16
and t_stats_rep = 17
and t_barrier_req = 18
and t_barrier_rep = 19

let no_buffer = 0xffffffffl

(* OFPET_* error types. OF 1.0 has no instructions: the nearest class
   for a rejected one is OFPET_BAD_REQUEST. *)
let error_type_to_wire = function
  | Hello_failed -> 0
  | Bad_instruction -> 1
  | Flow_mod_failed -> 3
  | Other_error n -> n

let error_type_of_wire = function
  | 0 -> Hello_failed
  | 3 -> Flow_mod_failed
  | n -> Other_error n

(* A message this codec cannot decode. *)
let malformed fmt =
  Printf.ksprintf (fun data -> Error { ty = Hello_failed; code = 0; data }) fmt

let not_in_of10 what =
  invalid_arg (Printf.sprintf "Of10.encode: OF 1.0 has no %s" what)

(* --- pseudo port numbers -------------------------------------------------- *)

let p_in_port = 0xfff8
and p_flood = 0xfffb
and p_all = 0xfffc
and p_controller = 0xfffd
and p_none = 0xffff

let pseudo_port_to_wire = function
  | Action.Physical n -> n
  | Action.In_port -> p_in_port
  | Action.Flood -> p_flood
  | Action.All -> p_all
  | Action.Controller _ -> p_controller
  | Action.Drop -> p_none

let pseudo_port_of_wire ~max_len n =
  if n = p_in_port then Action.In_port
  else if n = p_flood then Action.Flood
  else if n = p_all then Action.All
  else if n = p_controller then Action.Controller max_len
  else if n = p_none then Action.Drop
  else Action.Physical n

(* --- ofp_match (40 bytes) -------------------------------------------------- *)

let w_in_port = 1 lsl 0
and w_dl_vlan = 1 lsl 1
and w_dl_src = 1 lsl 2
and w_dl_dst = 1 lsl 3
and w_dl_type = 1 lsl 4
and w_nw_proto = 1 lsl 5
and w_tp_src = 1 lsl 6
and w_tp_dst = 1 lsl 7
and w_nw_src_shift = 8
and w_nw_dst_shift = 14
and w_dl_vlan_pcp = 1 lsl 20
and w_nw_tos = 1 lsl 21

let encode_match w (m : Of_match.t) =
  let wc = ref 0 in
  let bit b = function None -> wc := !wc lor b | Some _ -> () in
  bit w_in_port m.in_port;
  bit w_dl_vlan m.dl_vlan;
  bit w_dl_src m.dl_src;
  bit w_dl_dst m.dl_dst;
  bit w_dl_type m.dl_type;
  bit w_nw_proto m.nw_proto;
  bit w_tp_src m.tp_src;
  bit w_tp_dst m.tp_dst;
  bit w_dl_vlan_pcp m.dl_vlan_pcp;
  bit w_nw_tos m.nw_tos;
  let prefix_wild shift = function
    | None -> wc := !wc lor (32 lsl shift)
    | Some p -> wc := !wc lor ((32 - p.P.Ipv4_addr.Prefix.bits) lsl shift)
  in
  prefix_wild w_nw_src_shift m.nw_src;
  prefix_wild w_nw_dst_shift m.nw_dst;
  W.u32 w (Int32.of_int !wc);
  W.u16 w (Option.value m.in_port ~default:0);
  W.string w (P.Mac.to_octets (Option.value m.dl_src ~default:P.Mac.zero));
  W.string w (P.Mac.to_octets (Option.value m.dl_dst ~default:P.Mac.zero));
  W.u16 w (Option.value m.dl_vlan ~default:0);
  W.u8 w (Option.value m.dl_vlan_pcp ~default:0);
  W.u8 w 0;
  W.u16 w (Option.value m.dl_type ~default:0);
  W.u8 w (Option.value m.nw_tos ~default:0);
  W.u8 w (Option.value m.nw_proto ~default:0);
  W.zeros w 2;
  let prefix_base = function
    | None -> P.Ipv4_addr.any
    | Some p -> p.P.Ipv4_addr.Prefix.base
  in
  W.string w (P.Ipv4_addr.to_octets (prefix_base m.nw_src));
  W.string w (P.Ipv4_addr.to_octets (prefix_base m.nw_dst));
  W.u16 w (Option.value m.tp_src ~default:0);
  W.u16 w (Option.value m.tp_dst ~default:0)

let decode_match r : Of_match.t =
  let wc = Int32.to_int (R.u32 r) in
  let in_port = R.u16 r in
  let dl_src = P.Mac.of_octets (R.bytes r 6) in
  let dl_dst = P.Mac.of_octets (R.bytes r 6) in
  let dl_vlan = R.u16 r in
  let dl_vlan_pcp = R.u8 r in
  R.skip r 1;
  let dl_type = R.u16 r in
  let nw_tos = R.u8 r in
  let nw_proto = R.u8 r in
  R.skip r 2;
  let nw_src = P.Ipv4_addr.of_octets (R.bytes r 4) in
  let nw_dst = P.Ipv4_addr.of_octets (R.bytes r 4) in
  let tp_src = R.u16 r in
  let tp_dst = R.u16 r in
  let scalar bit v = if wc land bit <> 0 then None else Some v in
  let prefix shift base =
    let wild_bits = (wc lsr shift) land 0x3f in
    if wild_bits >= 32 then None
    else Some (P.Ipv4_addr.Prefix.make base (32 - wild_bits))
  in
  { in_port = scalar w_in_port in_port;
    dl_src = scalar w_dl_src dl_src;
    dl_dst = scalar w_dl_dst dl_dst;
    dl_vlan = scalar w_dl_vlan dl_vlan;
    dl_vlan_pcp = scalar w_dl_vlan_pcp dl_vlan_pcp;
    dl_type = scalar w_dl_type dl_type;
    nw_src = prefix w_nw_src_shift nw_src;
    nw_dst = prefix w_nw_dst_shift nw_dst;
    nw_proto = scalar w_nw_proto nw_proto;
    nw_tos = scalar w_nw_tos nw_tos;
    tp_src = scalar w_tp_src tp_src;
    tp_dst = scalar w_tp_dst tp_dst }

(* --- ofp_phy_port (48 bytes) ----------------------------------------------- *)

let encode_port w (p : Of_types.Port_info.t) =
  W.u16 w p.port_no;
  W.string w (P.Mac.to_octets p.hw_addr);
  let name =
    if String.length p.name >= 16 then String.sub p.name 0 15 else p.name
  in
  W.string w name;
  W.zeros w (16 - String.length name);
  W.u32 w (if p.admin_down then 1l else 0l); (* config: OFPPC_PORT_DOWN *)
  W.u32 w (if p.link_down then 1l else 0l); (* state: OFPPS_LINK_DOWN *)
  (* We carry the port speed directly in the [curr] feature word; the
     simulator has no notion of the OF feature bitmap's fixed rates. *)
  W.u32 w (Int32.of_int p.speed_mbps);
  W.u32 w 0l;
  W.u32 w 0l;
  W.u32 w 0l

let decode_port r : Of_types.Port_info.t =
  let port_no = R.u16 r in
  let hw_addr = P.Mac.of_octets (R.bytes r 6) in
  let raw_name = R.bytes r 16 in
  let name =
    match String.index_opt raw_name '\000' with
    | Some i -> String.sub raw_name 0 i
    | None -> raw_name
  in
  let config = R.u32 r in
  let state = R.u32 r in
  let curr = R.u32 r in
  R.skip r 12;
  { port_no; hw_addr; name;
    admin_down = Int32.logand config 1l <> 0l;
    link_down = Int32.logand state 1l <> 0l;
    speed_mbps = Int32.to_int curr }

(* --- actions ---------------------------------------------------------------- *)

let encode_action w (a : Action.t) =
  match a with
  | Action.Output port ->
    W.u16 w 0;
    W.u16 w 8;
    W.u16 w (pseudo_port_to_wire port);
    W.u16 w (match port with Action.Controller max_len -> max_len | _ -> 0)
  | Action.Set_vlan vid ->
    W.u16 w 1; W.u16 w 8; W.u16 w vid; W.zeros w 2
  | Action.Set_vlan_pcp pcp ->
    W.u16 w 2; W.u16 w 8; W.u8 w pcp; W.zeros w 3
  | Action.Strip_vlan -> W.u16 w 3; W.u16 w 8; W.zeros w 4
  | Action.Set_dl_src mac ->
    W.u16 w 4; W.u16 w 16; W.string w (P.Mac.to_octets mac); W.zeros w 6
  | Action.Set_dl_dst mac ->
    W.u16 w 5; W.u16 w 16; W.string w (P.Mac.to_octets mac); W.zeros w 6
  | Action.Set_nw_src addr ->
    W.u16 w 6; W.u16 w 8; W.string w (P.Ipv4_addr.to_octets addr)
  | Action.Set_nw_dst addr ->
    W.u16 w 7; W.u16 w 8; W.string w (P.Ipv4_addr.to_octets addr)
  | Action.Set_nw_tos tos -> W.u16 w 8; W.u16 w 8; W.u8 w tos; W.zeros w 3
  | Action.Set_tp_src port -> W.u16 w 9; W.u16 w 8; W.u16 w port; W.zeros w 2
  | Action.Set_tp_dst port -> W.u16 w 10; W.u16 w 8; W.u16 w port; W.zeros w 2
  | Action.Enqueue { port; queue_id } ->
    W.u16 w 11;
    W.u16 w 16;
    W.u16 w port;
    W.zeros w 6;
    W.u32 w (Int32.of_int queue_id)

let encode_actions w actions = List.iter (encode_action w) actions

let actions_wire_len actions =
  List.fold_left
    (fun acc a ->
      acc
      +
      match a with
      | Action.Set_dl_src _ | Action.Set_dl_dst _ | Action.Enqueue _ -> 16
      | _ -> 8)
    0 actions

let decode_action r =
  let ty = R.u16 r in
  let len = R.u16 r in
  match ty with
  | 0 ->
    let port = R.u16 r in
    let max_len = R.u16 r in
    Ok (Action.Output (pseudo_port_of_wire ~max_len port))
  | 1 ->
    let vid = R.u16 r in
    R.skip r 2;
    Ok (Action.Set_vlan vid)
  | 2 ->
    let pcp = R.u8 r in
    R.skip r 3;
    Ok (Action.Set_vlan_pcp pcp)
  | 3 ->
    R.skip r 4;
    Ok Action.Strip_vlan
  | 4 ->
    let mac = P.Mac.of_octets (R.bytes r 6) in
    R.skip r 6;
    Ok (Action.Set_dl_src mac)
  | 5 ->
    let mac = P.Mac.of_octets (R.bytes r 6) in
    R.skip r 6;
    Ok (Action.Set_dl_dst mac)
  | 6 -> Ok (Action.Set_nw_src (P.Ipv4_addr.of_octets (R.bytes r 4)))
  | 7 -> Ok (Action.Set_nw_dst (P.Ipv4_addr.of_octets (R.bytes r 4)))
  | 8 ->
    let tos = R.u8 r in
    R.skip r 3;
    Ok (Action.Set_nw_tos tos)
  | 9 ->
    let port = R.u16 r in
    R.skip r 2;
    Ok (Action.Set_tp_src port)
  | 10 ->
    let port = R.u16 r in
    R.skip r 2;
    Ok (Action.Set_tp_dst port)
  | 11 ->
    let port = R.u16 r in
    R.skip r 6;
    let queue_id = Int32.to_int (R.u32 r) in
    Ok (Action.Enqueue { port; queue_id })
  | _ -> malformed "unknown action type %d (len %d)" ty len

let decode_actions r ~len =
  let stop = R.pos r + len in
  let rec go acc =
    if R.pos r >= stop then Ok (List.rev acc)
    else
      match decode_action r with
      | Ok a -> go (a :: acc)
      | Error _ as e -> e
  in
  go []

(* --- capabilities ----------------------------------------------------------- *)

let caps_to_wire (c : Of_types.Capabilities.t) =
  Int32.of_int
    ((if c.flow_stats then 1 else 0)
    lor (if c.port_stats then 4 else 0)
    lor if c.queue_stats then 64 else 0)

let caps_of_wire v =
  let v = Int32.to_int v in
  { Of_types.Capabilities.flow_stats = v land 1 <> 0;
    port_stats = v land 4 <> 0;
    queue_stats = v land 64 <> 0 }

(* --- encode ------------------------------------------------------------------ *)

let buffer_id_to_wire = function None -> no_buffer | Some id -> id

let buffer_id_of_wire v = if Int32.equal v no_buffer then None else Some v

let body_and_type = function
  | Hello -> t_hello, ""
  | Error_msg { ty; code; data } ->
    let w = W.create () in
    W.u16 w (error_type_to_wire ty);
    W.u16 w code;
    W.string w data;
    t_error, W.contents w
  | Echo_request data -> t_echo_req, data
  | Echo_reply data -> t_echo_rep, data
  | Features_request -> t_features_req, ""
  | Features_reply f ->
    let w = W.create () in
    W.u64 w f.datapath_id;
    W.u32 w (Int32.of_int f.n_buffers);
    W.u8 w f.n_tables;
    W.zeros w 3;
    W.u32 w (caps_to_wire f.capabilities);
    W.u32 w 0xfffl; (* supported actions: all of ours *)
    List.iter (encode_port w) (Option.value f.ports ~default:[]);
    t_features_rep, W.contents w
  | Packet_in { buffer_id; total_len; in_port; reason; data } ->
    let w = W.create () in
    W.u32 w (buffer_id_to_wire buffer_id);
    W.u16 w total_len;
    W.u16 w in_port;
    W.u8 w (match reason with Of_types.No_match -> 0 | Of_types.Action_explicit -> 1);
    W.u8 w 0;
    W.string w data;
    t_packet_in, W.contents w
  | Packet_out { buffer_id; in_port; actions; data } ->
    let w = W.create () in
    W.u32 w (buffer_id_to_wire buffer_id);
    W.u16 w (Option.value in_port ~default:p_none);
    W.u16 w (actions_wire_len actions);
    encode_actions w actions;
    W.string w data;
    t_packet_out, W.contents w
  | Flow_mod fm ->
    let w = W.create () in
    encode_match w fm.of_match;
    W.u64 w fm.cookie;
    W.u16 w
      (match fm.command with
      | Add -> 0
      | Modify -> 1
      | Delete -> 3
      | Delete_strict -> 4);
    W.u16 w fm.idle_timeout;
    W.u16 w fm.hard_timeout;
    W.u16 w fm.priority;
    W.u32 w (buffer_id_to_wire fm.buffer_id);
    W.u16 w p_none; (* out_port filter: unused *)
    W.u16 w (if fm.notify_removal then 1 else 0);
    encode_actions w fm.actions;
    t_flow_mod, W.contents w
  | Flow_removed { of_match; cookie; priority; reason; duration_s; packets; bytes; _ } ->
    let w = W.create () in
    encode_match w of_match;
    W.u64 w cookie;
    W.u16 w priority;
    W.u8 w
      (match reason with
      | Of_types.Idle_timeout_hit -> 0
      | Of_types.Hard_timeout_hit -> 1
      | Of_types.Flow_deleted -> 2);
    W.u8 w 0;
    W.u32 w (Int32.of_int duration_s);
    W.u32 w 0l;
    W.u16 w 0;
    W.zeros w 2;
    W.u64 w packets;
    W.u64 w bytes;
    t_flow_removed, W.contents w
  | Port_status (reason, port) ->
    let w = W.create () in
    W.u8 w
      (match reason with
      | Of_types.Port_add -> 0
      | Of_types.Port_delete -> 1
      | Of_types.Port_modify -> 2);
    W.zeros w 7;
    encode_port w port;
    t_port_status, W.contents w
  | Port_mod { port_no; admin_down } ->
    let w = W.create () in
    W.u16 w port_no;
    W.string w (P.Mac.to_octets P.Mac.zero);
    W.u32 w (if admin_down then 1l else 0l); (* config *)
    W.u32 w 1l; (* mask: PORT_DOWN bit *)
    W.u32 w 0l; (* advertise *)
    W.zeros w 4;
    t_port_mod, W.contents w
  | Stats_request req ->
    let w = W.create () in
    (match req with
    | Flow_stats_req { table_id; of_match } ->
      W.u16 w 1;
      W.u16 w 0;
      encode_match w of_match;
      W.u8 w (Option.value table_id ~default:0xff);
      W.u8 w 0;
      W.u16 w p_none
    | Port_stats_req port ->
      W.u16 w 4;
      W.u16 w 0;
      W.u16 w (Option.value port ~default:p_none);
      W.zeros w 6
    | Port_desc_req -> not_in_of10 "port-desc request");
    t_stats_req, W.contents w
  | Stats_reply rep ->
    let w = W.create () in
    (match rep with
    | Flow_stats_rep flows ->
      W.u16 w 1;
      W.u16 w 0;
      List.iter
        (fun (table_id, (s : Of_types.Flow_stats.t)) ->
          let alen = actions_wire_len s.actions in
          W.u16 w (88 + alen);
          W.u8 w table_id;
          W.u8 w 0;
          encode_match w s.of_match;
          W.u32 w (Int32.of_int s.duration_s);
          W.u32 w 0l;
          W.u16 w s.priority;
          W.u16 w s.idle_timeout;
          W.u16 w s.hard_timeout;
          W.zeros w 6;
          W.u64 w s.cookie;
          W.u64 w s.packets;
          W.u64 w s.bytes;
          encode_actions w s.actions)
        flows
    | Port_stats_rep ports ->
      W.u16 w 4;
      W.u16 w 0;
      List.iter
        (fun (s : Of_types.Port_stats.t) ->
          W.u16 w s.port_no;
          W.zeros w 6;
          W.u64 w s.rx_packets;
          W.u64 w s.tx_packets;
          W.u64 w s.rx_bytes;
          W.u64 w s.tx_bytes;
          W.u64 w s.rx_dropped;
          W.u64 w s.tx_dropped;
          W.zeros w 48 (* error counters: unused *))
        ports
    | Port_desc_rep _ -> not_in_of10 "port-desc reply");
    t_stats_rep, W.contents w
  | Barrier_request -> t_barrier_req, ""
  | Barrier_reply -> t_barrier_rep, ""

let encode ~xid msg =
  let ty, body = body_and_type msg in
  let w = W.create ~size:(8 + String.length body) () in
  W.u8 w version;
  W.u8 w ty;
  W.u16 w (8 + String.length body);
  W.u32 w xid;
  W.string w body;
  W.contents w

(* --- decode ------------------------------------------------------------------ *)

let decode_body ty r =
  match ty with
  | ty when ty = t_hello -> Ok Hello
  | ty when ty = t_error ->
    let ety = R.u16 r in
    let code = R.u16 r in
    Ok (Error_msg { ty = error_type_of_wire ety; code; data = R.rest r })
  | ty when ty = t_echo_req -> Ok (Echo_request (R.rest r))
  | ty when ty = t_echo_rep -> Ok (Echo_reply (R.rest r))
  | ty when ty = t_features_req -> Ok Features_request
  | ty when ty = t_features_rep ->
    let datapath_id = R.u64 r in
    let n_buffers = Int32.to_int (R.u32 r) in
    let n_tables = R.u8 r in
    R.skip r 3;
    let capabilities = caps_of_wire (R.u32 r) in
    let _actions = R.u32 r in
    let rec ports acc =
      if R.remaining r < 48 then List.rev acc
      else ports (decode_port r :: acc)
    in
    Ok
      (Features_reply
         { datapath_id; n_buffers; n_tables; capabilities;
           ports = Some (ports []) })
  | ty when ty = t_packet_in ->
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let total_len = R.u16 r in
    let in_port = R.u16 r in
    let reason =
      if R.u8 r = 0 then Of_types.No_match else Of_types.Action_explicit
    in
    R.skip r 1;
    Ok (Packet_in { buffer_id; total_len; in_port; reason; data = R.rest r })
  | ty when ty = t_packet_out ->
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let in_port_raw = R.u16 r in
    let actions_len = R.u16 r in
    Result.bind (decode_actions r ~len:actions_len) (fun actions ->
        Ok
          (Packet_out
             { buffer_id;
               in_port = (if in_port_raw = p_none then None else Some in_port_raw);
               actions;
               data = R.rest r }))
  | ty when ty = t_flow_mod ->
    let of_match = decode_match r in
    let cookie = R.u64 r in
    let cmd = R.u16 r in
    let idle_timeout = R.u16 r in
    let hard_timeout = R.u16 r in
    let priority = R.u16 r in
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let _out_port = R.u16 r in
    let flags = R.u16 r in
    let command =
      match cmd with
      | 0 -> Ok Add
      | 1 | 2 -> Ok Modify
      | 3 -> Ok Delete
      | 4 -> Ok Delete_strict
      | n -> malformed "unknown flow_mod command %d" n
    in
    Result.bind command (fun command ->
        Result.bind (decode_actions r ~len:(R.remaining r)) (fun actions ->
            Ok
              (Flow_mod
                 { table_id = 0; of_match; cookie; command; idle_timeout;
                   hard_timeout;
                   priority; buffer_id; notify_removal = flags land 1 <> 0;
                   actions })))
  | ty when ty = t_flow_removed ->
    let of_match = decode_match r in
    let cookie = R.u64 r in
    let priority = R.u16 r in
    let reason_raw = R.u8 r in
    R.skip r 1;
    let duration_s = Int32.to_int (R.u32 r) in
    R.skip r 4;
    let _idle = R.u16 r in
    R.skip r 2;
    let packets = R.u64 r in
    let bytes = R.u64 r in
    let reason =
      match reason_raw with
      | 0 -> Of_types.Idle_timeout_hit
      | 1 -> Of_types.Hard_timeout_hit
      | _ -> Of_types.Flow_deleted
    in
    Ok
      (Flow_removed
         { table_id = 0; of_match; cookie; priority; reason; duration_s;
           packets; bytes })
  | ty when ty = t_port_status ->
    let reason_raw = R.u8 r in
    R.skip r 7;
    let port = decode_port r in
    let reason =
      match reason_raw with
      | 0 -> Of_types.Port_add
      | 1 -> Of_types.Port_delete
      | _ -> Of_types.Port_modify
    in
    Ok (Port_status (reason, port))
  | ty when ty = t_port_mod ->
    let port_no = R.u16 r in
    R.skip r 6;
    let config = R.u32 r in
    let _mask = R.u32 r in
    Ok (Port_mod { port_no; admin_down = Int32.logand config 1l <> 0l })
  | ty when ty = t_stats_req ->
    let sty = R.u16 r in
    let _flags = R.u16 r in
    (match sty with
    | 1 ->
      (* The table byte is not read: a one-table switch serves them all. *)
      let of_match = decode_match r in
      Ok (Stats_request (Flow_stats_req { table_id = None; of_match }))
    | 4 ->
      let port = R.u16 r in
      Ok (Stats_request (Port_stats_req (if port = p_none then None else Some port)))
    | n -> malformed "unknown stats request type %d" n)
  | ty when ty = t_stats_rep ->
    let sty = R.u16 r in
    let _flags = R.u16 r in
    (match sty with
    | 1 ->
      let rec entries acc =
        if R.remaining r < 88 then Ok (List.rev acc)
        else begin
          let entry_len = R.u16 r in
          let table_id = R.u8 r in
          R.skip r 1;
          let of_match = decode_match r in
          let duration_s = Int32.to_int (R.u32 r) in
          R.skip r 4;
          let priority = R.u16 r in
          let idle_timeout = R.u16 r in
          let hard_timeout = R.u16 r in
          R.skip r 6;
          let cookie = R.u64 r in
          let packets = R.u64 r in
          let bytes = R.u64 r in
          match decode_actions r ~len:(entry_len - 88) with
          | Error _ as e -> e
          | Ok actions ->
            entries
              (( table_id,
                 { Of_types.Flow_stats.of_match; priority; cookie; packets;
                   bytes; duration_s; idle_timeout; hard_timeout; actions } )
              :: acc)
        end
      in
      Result.map (fun l -> Stats_reply (Flow_stats_rep l)) (entries [])
    | 4 ->
      let rec entries acc =
        if R.remaining r < 104 then List.rev acc
        else begin
          let port_no = R.u16 r in
          R.skip r 6;
          let rx_packets = R.u64 r in
          let tx_packets = R.u64 r in
          let rx_bytes = R.u64 r in
          let tx_bytes = R.u64 r in
          let rx_dropped = R.u64 r in
          let tx_dropped = R.u64 r in
          R.skip r 48;
          entries
            ({ Of_types.Port_stats.port_no; rx_packets; tx_packets; rx_bytes;
               tx_bytes; rx_dropped; tx_dropped }
            :: acc)
        end
      in
      Ok (Stats_reply (Port_stats_rep (entries [])))
    | n -> malformed "unknown stats reply type %d" n)
  | ty when ty = t_barrier_req -> Ok Barrier_request
  | ty when ty = t_barrier_rep -> Ok Barrier_reply
  | ty -> malformed "unknown OF1.0 message type %d" ty

let decode s =
  try
    let r = R.of_string s in
    let v = R.u8 r in
    if v <> version then malformed "bad version %d (want 1)" v
    else begin
      let ty = R.u8 r in
      let len = R.u16 r in
      let xid = R.u32 r in
      if len <> String.length s then
        malformed "length mismatch: header %d, actual %d" len (String.length s)
      else Result.map (fun m -> xid, m) (decode_body ty r)
    end
  with R.Truncated -> malformed "truncated message"
