module P = Packet
module W = P.Wire.W
module R = P.Wire.R

let version = 0x04

open Msg

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
and t_port_mod = 16
and t_multipart_req = 18
and t_multipart_rep = 19
and t_barrier_req = 20
and t_barrier_rep = 21

let no_buffer = 0xffffffffl

(* OFPET_* error types. *)
let error_type_to_wire = function
  | Hello_failed -> 0
  | Bad_instruction -> 3
  | Flow_mod_failed -> 5
  | Other_error n -> n

let error_type_of_wire = function
  | 0 -> Hello_failed
  | 3 -> Bad_instruction
  | 5 -> Flow_mod_failed
  | n -> Other_error n

(* A message this codec cannot decode. *)
let malformed fmt =
  Printf.ksprintf (fun data -> Error { ty = Hello_failed; code = 0; data }) fmt

let p13_in_port = 0xfffffff8
and p13_flood = 0xfffffffb
and p13_all = 0xfffffffc
and p13_controller = 0xfffffffd
and p13_any = 0xffffffff

let pseudo_port_to_wire = function
  | Action.Physical n -> n
  | Action.In_port -> p13_in_port
  | Action.Flood -> p13_flood
  | Action.All -> p13_all
  | Action.Controller _ -> p13_controller
  | Action.Drop -> p13_any

let pseudo_port_of_wire ~max_len n =
  if n = p13_in_port then Action.In_port
  else if n = p13_flood then Action.Flood
  else if n = p13_all then Action.All
  else if n = p13_controller then Action.Controller max_len
  else if n = p13_any then Action.Drop
  else Action.Physical n

(* --- OXM TLVs --------------------------------------------------------------- *)

let oxm_class = 0x8000

let f_in_port = 0
and f_eth_dst = 3
and f_eth_src = 4
and f_eth_type = 5
and f_vlan_vid = 6
and f_vlan_pcp = 7
and f_ip_dscp = 8
and f_ip_proto = 10
and f_ipv4_src = 11
and f_ipv4_dst = 12
and f_tcp_src = 13
and f_tcp_dst = 14
and f_udp_src = 15
and f_udp_dst = 16

let oxm_header w ~field ~hasmask ~len =
  W.u16 w oxm_class;
  W.u8 w ((field lsl 1) lor if hasmask then 1 else 0);
  W.u8 w len

(* Encode the logical match as an OXM list (length-prefixed struct
   ofp_match, padded to 8 bytes). tp ports use the TCP or UDP OXM field
   depending on nw_proto; TCP when the protocol is unspecified. *)
let encode_match w (m : Of_match.t) =
  let body = W.create () in
  let u16_field field v =
    oxm_header body ~field ~hasmask:false ~len:2;
    W.u16 body v
  in
  Option.iter
    (fun v ->
      oxm_header body ~field:f_in_port ~hasmask:false ~len:4;
      W.u32 body (Int32.of_int v))
    m.in_port;
  Option.iter
    (fun mac ->
      oxm_header body ~field:f_eth_dst ~hasmask:false ~len:6;
      W.string body (P.Mac.to_octets mac))
    m.dl_dst;
  Option.iter
    (fun mac ->
      oxm_header body ~field:f_eth_src ~hasmask:false ~len:6;
      W.string body (P.Mac.to_octets mac))
    m.dl_src;
  Option.iter (fun v -> u16_field f_eth_type v) m.dl_type;
  (* VLAN_VID: the spec sets OFPVID_PRESENT (0x1000) on real VIDs. *)
  Option.iter (fun v -> u16_field f_vlan_vid (v lor 0x1000)) m.dl_vlan;
  Option.iter
    (fun v ->
      oxm_header body ~field:f_vlan_pcp ~hasmask:false ~len:1;
      W.u8 body v)
    m.dl_vlan_pcp;
  Option.iter
    (fun v ->
      oxm_header body ~field:f_ip_dscp ~hasmask:false ~len:1;
      W.u8 body (v lsr 2))
    m.nw_tos;
  Option.iter
    (fun v ->
      oxm_header body ~field:f_ip_proto ~hasmask:false ~len:1;
      W.u8 body v)
    m.nw_proto;
  let prefix_field field (p : P.Ipv4_addr.Prefix.t) =
    if p.bits = 32 then begin
      oxm_header body ~field ~hasmask:false ~len:4;
      W.string body (P.Ipv4_addr.to_octets p.base)
    end
    else begin
      oxm_header body ~field ~hasmask:true ~len:8;
      W.string body (P.Ipv4_addr.to_octets p.base);
      let mask =
        if p.bits = 0 then 0l else Int32.shift_left 0xffffffffl (32 - p.bits)
      in
      W.u32 body mask
    end
  in
  Option.iter (prefix_field f_ipv4_src) m.nw_src;
  Option.iter (prefix_field f_ipv4_dst) m.nw_dst;
  let tp_field src =
    match m.nw_proto with
    | Some 17 -> if src then f_udp_src else f_udp_dst
    | _ -> if src then f_tcp_src else f_tcp_dst
  in
  Option.iter (fun v -> u16_field (tp_field true) v) m.tp_src;
  Option.iter (fun v -> u16_field (tp_field false) v) m.tp_dst;
  let oxms = W.contents body in
  let match_len = 4 + String.length oxms in
  W.u16 w 1; (* OFPMT_OXM *)
  W.u16 w match_len;
  W.string w oxms;
  let pad = (8 - (match_len mod 8)) mod 8 in
  W.zeros w pad

let decode_match r : (Of_match.t, error) result =
  let mty = R.u16 r in
  let match_len = R.u16 r in
  if mty <> 1 then malformed "unsupported match type %d" mty
  else begin
    let oxm_len = match_len - 4 in
    let stop = R.pos r + oxm_len in
    let m = ref Of_match.any in
    while R.pos r < stop do
      let cls = R.u16 r in
      let fh = R.u8 r in
      let len = R.u8 r in
      let field = fh lsr 1
      and hasmask = fh land 1 = 1 in
      if cls <> oxm_class then begin
        R.skip r len;
        ()
      end
      else begin
        let cur = !m in
        if field = f_in_port then
          m := { cur with in_port = Some (Int32.to_int (R.u32 r)) }
        else if field = f_eth_dst then
          m := { cur with dl_dst = Some (P.Mac.of_octets (R.bytes r 6)) }
        else if field = f_eth_src then
          m := { cur with dl_src = Some (P.Mac.of_octets (R.bytes r 6)) }
        else if field = f_eth_type then m := { cur with dl_type = Some (R.u16 r) }
        else if field = f_vlan_vid then
          m := { cur with dl_vlan = Some (R.u16 r land 0xfff) }
        else if field = f_vlan_pcp then m := { cur with dl_vlan_pcp = Some (R.u8 r) }
        else if field = f_ip_dscp then m := { cur with nw_tos = Some (R.u8 r lsl 2) }
        else if field = f_ip_proto then m := { cur with nw_proto = Some (R.u8 r) }
        else if field = f_ipv4_src || field = f_ipv4_dst then begin
          let base = P.Ipv4_addr.of_octets (R.bytes r 4) in
          let bits =
            if not hasmask then 32
            else begin
              let mask = R.u32 r in
              (* Count the leading ones of the mask. *)
              let rec count i =
                if i >= 32 then 32
                else if
                  Int32.logand mask (Int32.shift_left 1l (31 - i)) = 0l
                then i
                else count (i + 1)
              in
              count 0
            end
          in
          let p = P.Ipv4_addr.Prefix.make base bits in
          if field = f_ipv4_src then m := { cur with nw_src = Some p }
          else m := { cur with nw_dst = Some p }
        end
        else if field = f_tcp_src || field = f_udp_src then
          m := { cur with tp_src = Some (R.u16 r) }
        else if field = f_tcp_dst || field = f_udp_dst then
          m := { cur with tp_dst = Some (R.u16 r) }
        else R.skip r len
      end
    done;
    let pad = (8 - (match_len mod 8)) mod 8 in
    R.skip r pad;
    Ok !m
  end

(* --- actions ----------------------------------------------------------------- *)

let set_field_action w ~field ~len body =
  (* OFPAT_SET_FIELD: action header + one OXM, padded to 8. *)
  let oxm_len = 4 + len in
  let total = 4 + oxm_len in
  let padded = (total + 7) / 8 * 8 in
  W.u16 w 25;
  W.u16 w padded;
  oxm_header w ~field ~hasmask:false ~len;
  body w;
  W.zeros w (padded - total)

let encode_action w (a : Action.t) =
  match a with
  | Action.Enqueue { port; queue_id } ->
    (* OF 1.3 splits the 1.0 ENQUEUE into SET_QUEUE + OUTPUT. *)
    W.u16 w 21;
    W.u16 w 8;
    W.u32 w (Int32.of_int queue_id);
    W.u16 w 0;
    W.u16 w 16;
    W.u32 w (Int32.of_int port);
    W.u16 w 0;
    W.zeros w 6
  | Action.Output port ->
    W.u16 w 0;
    W.u16 w 16;
    W.u32 w (Int32.of_int (pseudo_port_to_wire port));
    W.u16 w (match port with Action.Controller max_len -> max_len | _ -> 0);
    W.zeros w 6
  | Action.Strip_vlan ->
    W.u16 w 18; (* POP_VLAN *)
    W.u16 w 8;
    W.zeros w 4
  | Action.Set_vlan vid ->
    set_field_action w ~field:f_vlan_vid ~len:2 (fun w -> W.u16 w (vid lor 0x1000))
  | Action.Set_vlan_pcp pcp ->
    set_field_action w ~field:f_vlan_pcp ~len:1 (fun w -> W.u8 w pcp)
  | Action.Set_dl_src mac ->
    set_field_action w ~field:f_eth_src ~len:6 (fun w ->
        W.string w (P.Mac.to_octets mac))
  | Action.Set_dl_dst mac ->
    set_field_action w ~field:f_eth_dst ~len:6 (fun w ->
        W.string w (P.Mac.to_octets mac))
  | Action.Set_nw_src addr ->
    set_field_action w ~field:f_ipv4_src ~len:4 (fun w ->
        W.string w (P.Ipv4_addr.to_octets addr))
  | Action.Set_nw_dst addr ->
    set_field_action w ~field:f_ipv4_dst ~len:4 (fun w ->
        W.string w (P.Ipv4_addr.to_octets addr))
  | Action.Set_nw_tos tos ->
    set_field_action w ~field:f_ip_dscp ~len:1 (fun w -> W.u8 w (tos lsr 2))
  | Action.Set_tp_src port ->
    set_field_action w ~field:f_tcp_src ~len:2 (fun w -> W.u16 w port)
  | Action.Set_tp_dst port ->
    set_field_action w ~field:f_tcp_dst ~len:2 (fun w -> W.u16 w port)

let encode_actions_to_string actions =
  let w = W.create () in
  List.iter (encode_action w) actions;
  W.contents w

(* SET_QUEUE is represented as a pending marker consumed by the next
   OUTPUT, reconstructing the logical [Enqueue]. *)
type decoded_action = Plain of Action.t | Pending_queue of int

let decode_action r =
  let ty = R.u16 r in
  let len = R.u16 r in
  match ty with
  | 21 ->
    let queue_id = Int32.to_int (R.u32 r) in
    Ok (Pending_queue queue_id)
  | 0 ->
    let port = Int32.to_int (R.u32 r) land 0xffffffff in
    let max_len = R.u16 r in
    R.skip r 6;
    Ok (Plain (Action.Output (pseudo_port_of_wire ~max_len port)))
  | 18 ->
    R.skip r 4;
    Ok (Plain Action.Strip_vlan)
  | 25 ->
    let start = R.pos r - 4 in
    let _cls = R.u16 r in
    let fh = R.u8 r in
    let flen = R.u8 r in
    let field = fh lsr 1 in
    let result =
      if field = f_vlan_vid then Ok (Action.Set_vlan (R.u16 r land 0xfff))
      else if field = f_vlan_pcp then Ok (Action.Set_vlan_pcp (R.u8 r))
      else if field = f_eth_src then
        Ok (Action.Set_dl_src (P.Mac.of_octets (R.bytes r 6)))
      else if field = f_eth_dst then
        Ok (Action.Set_dl_dst (P.Mac.of_octets (R.bytes r 6)))
      else if field = f_ipv4_src then
        Ok (Action.Set_nw_src (P.Ipv4_addr.of_octets (R.bytes r 4)))
      else if field = f_ipv4_dst then
        Ok (Action.Set_nw_dst (P.Ipv4_addr.of_octets (R.bytes r 4)))
      else if field = f_ip_dscp then Ok (Action.Set_nw_tos (R.u8 r lsl 2))
      else if field = f_tcp_src || field = f_udp_src then
        Ok (Action.Set_tp_src (R.u16 r))
      else if field = f_tcp_dst || field = f_udp_dst then
        Ok (Action.Set_tp_dst (R.u16 r))
      else malformed "unsupported set_field oxm %d" field
    in
    ignore flen;
    (* Skip padding up to the declared action length. *)
    let consumed = R.pos r - start in
    if len > consumed then R.skip r (len - consumed);
    Result.map (fun a -> Plain a) result
  | _ -> malformed "unknown OF1.3 action type %d" ty

let decode_actions r ~len =
  let stop = R.pos r + len in
  let rec go pending acc =
    if R.pos r >= stop then
      (* a trailing SET_QUEUE with no OUTPUT is dropped, as a switch would *)
      Ok (List.rev acc)
    else
      match decode_action r with
      | Ok (Pending_queue queue_id) -> go (Some queue_id) acc
      | Ok (Plain (Action.Output (Action.Physical port))) when pending <> None ->
        go None (Action.Enqueue { port; queue_id = Option.get pending } :: acc)
      | Ok (Plain a) -> go pending (a :: acc)
      | Error _ as e -> e
  in
  go None []

(* --- instructions -------------------------------------------------------------- *)

(* A flow's actions ride in one OFPIT_APPLY_ACTIONS instruction. *)
let encode_apply_actions w actions =
  let body = encode_actions_to_string actions in
  W.u16 w 4;
  W.u16 w (8 + String.length body);
  W.zeros w 4;
  W.string w body

(* The instruction list up to [stop], as a single-table switch
   understands it: none, or one apply-actions. Anything else
   (goto-table, write/clear-actions, meters, a second instruction) is
   refused with OFPBIC_UNSUP_INST rather than half-applied. *)
let decode_instructions r ~stop =
  let unsupported what =
    Error { ty = Bad_instruction; code = 1; data = "unsupported " ^ what }
  in
  if R.pos r >= stop then Ok []
  else begin
    let ty = R.u16 r in
    let len = R.u16 r in
    if ty <> 4 then unsupported (Printf.sprintf "instruction type %d" ty)
    else begin
      R.skip r 4;
      match decode_actions r ~len:(len - 8) with
      | Error _ as e -> e
      | Ok _ when R.pos r < stop -> unsupported "instruction list"
      | Ok actions -> Ok actions
    end
  end

(* --- ports (64 bytes) ------------------------------------------------------------ *)

let encode_port w (p : Of_types.Port_info.t) =
  W.u32 w (Int32.of_int p.port_no);
  W.zeros w 4;
  W.string w (P.Mac.to_octets p.hw_addr);
  W.zeros w 2;
  let name =
    if String.length p.name >= 16 then String.sub p.name 0 15 else p.name
  in
  W.string w name;
  W.zeros w (16 - String.length name);
  W.u32 w (if p.admin_down then 1l else 0l);
  W.u32 w (if p.link_down then 1l else 0l);
  W.u32 w 0l;
  W.u32 w 0l;
  W.u32 w 0l;
  W.u32 w 0l;
  W.u32 w (Int32.of_int (p.speed_mbps * 1000)); (* curr_speed: kbps *)
  W.u32 w (Int32.of_int (p.speed_mbps * 1000))

let decode_port r : Of_types.Port_info.t =
  let port_no = Int32.to_int (R.u32 r) in
  R.skip r 4;
  let hw_addr = P.Mac.of_octets (R.bytes r 6) in
  R.skip r 2;
  let raw_name = R.bytes r 16 in
  let name =
    match String.index_opt raw_name '\000' with
    | Some i -> String.sub raw_name 0 i
    | None -> raw_name
  in
  let config = R.u32 r in
  let state = R.u32 r in
  R.skip r 16;
  let curr_speed = Int32.to_int (R.u32 r) in
  R.skip r 4;
  { port_no; hw_addr; name;
    admin_down = Int32.logand config 1l <> 0l;
    link_down = Int32.logand state 1l <> 0l;
    speed_mbps = curr_speed / 1000 }

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

(* --- encode ------------------------------------------------------------------------ *)

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
    W.u8 w 0; (* auxiliary_id *)
    W.zeros w 2;
    W.u32 w (caps_to_wire f.capabilities);
    W.u32 w 0l; (* reserved *)
    t_features_rep, W.contents w
  | Packet_in { buffer_id; total_len; reason; in_port; data } ->
    let w = W.create () in
    W.u32 w (buffer_id_to_wire buffer_id);
    W.u16 w total_len;
    W.u8 w (match reason with Of_types.No_match -> 0 | Of_types.Action_explicit -> 1);
    W.u8 w 0; (* table_id *)
    W.u64 w 0L; (* cookie *)
    encode_match w { Of_match.any with in_port = Some in_port };
    W.zeros w 2;
    W.string w data;
    t_packet_in, W.contents w
  | Packet_out { buffer_id; in_port; actions; data } ->
    let w = W.create () in
    W.u32 w (buffer_id_to_wire buffer_id);
    W.u32 w (Int32.of_int (Option.value in_port ~default:p13_any));
    let body = encode_actions_to_string actions in
    W.u16 w (String.length body);
    W.zeros w 6;
    W.string w body;
    W.string w data;
    t_packet_out, W.contents w
  | Flow_mod fm ->
    let w = W.create () in
    W.u64 w fm.cookie;
    W.u64 w 0L; (* cookie mask *)
    W.u8 w fm.table_id;
    W.u8 w
      (match fm.command with
      | Add -> 0
      | Modify -> 1
      | Delete -> 3
      | Delete_strict -> 4);
    W.u16 w fm.idle_timeout;
    W.u16 w fm.hard_timeout;
    W.u16 w fm.priority;
    W.u32 w (buffer_id_to_wire fm.buffer_id);
    W.u32 w (Int32.of_int p13_any); (* out_port *)
    W.u32 w (Int32.of_int p13_any); (* out_group *)
    W.u16 w (if fm.notify_removal then 1 else 0);
    W.zeros w 2;
    encode_match w fm.of_match;
    (match fm.command with
    | Add | Modify -> encode_apply_actions w fm.actions
    | Delete | Delete_strict -> ());
    t_flow_mod, W.contents w
  | Flow_removed { table_id; of_match; cookie; priority; reason; duration_s; packets; bytes } ->
    let w = W.create () in
    W.u64 w cookie;
    W.u16 w priority;
    W.u8 w
      (match reason with
      | Of_types.Idle_timeout_hit -> 0
      | Of_types.Hard_timeout_hit -> 1
      | Of_types.Flow_deleted -> 2);
    W.u8 w table_id;
    W.u32 w (Int32.of_int duration_s);
    W.u32 w 0l;
    W.u16 w 0;
    W.u16 w 0;
    W.u64 w packets;
    W.u64 w bytes;
    encode_match w of_match;
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
    W.u32 w (Int32.of_int port_no);
    W.zeros w 4;
    W.string w (P.Mac.to_octets P.Mac.zero);
    W.zeros w 2;
    W.u32 w (if admin_down then 1l else 0l);
    W.u32 w 1l;
    W.u32 w 0l;
    W.zeros w 4;
    t_port_mod, W.contents w
  | Stats_request req ->
    let w = W.create () in
    (match req with
    | Port_desc_req ->
      W.u16 w 13;
      W.u16 w 0;
      W.zeros w 4
    | Flow_stats_req { table_id; of_match } ->
      W.u16 w 1;
      W.u16 w 0;
      W.zeros w 4;
      W.u8 w (Option.value table_id ~default:0xff);
      W.zeros w 3;
      W.u32 w (Int32.of_int p13_any);
      W.u32 w (Int32.of_int p13_any);
      W.zeros w 4;
      W.u64 w 0L;
      W.u64 w 0L;
      encode_match w of_match
    | Port_stats_req port ->
      W.u16 w 4;
      W.u16 w 0;
      W.zeros w 4;
      W.u32 w (Int32.of_int (Option.value port ~default:p13_any));
      W.zeros w 4);
    t_multipart_req, W.contents w
  | Stats_reply rep ->
    let w = W.create () in
    (match rep with
    | Port_desc_rep ports ->
      W.u16 w 13;
      W.u16 w 0;
      W.zeros w 4;
      List.iter (encode_port w) ports
    | Flow_stats_rep entries ->
      W.u16 w 1;
      W.u16 w 0;
      W.zeros w 4;
      List.iter
        (fun (table_id, (s : Of_types.Flow_stats.t)) ->
          let sub = W.create () in
          W.u8 sub table_id;
          W.u8 sub 0;
          W.u32 sub (Int32.of_int s.duration_s);
          W.u32 sub 0l;
          W.u16 sub s.priority;
          W.u16 sub s.idle_timeout;
          W.u16 sub s.hard_timeout;
          W.u16 sub 0;
          W.zeros sub 4;
          W.u64 sub s.cookie;
          W.u64 sub s.packets;
          W.u64 sub s.bytes;
          encode_match sub s.of_match;
          encode_apply_actions sub s.actions;
          let body = W.contents sub in
          W.u16 w (2 + String.length body);
          W.string w body)
        entries
    | Port_stats_rep ports ->
      W.u16 w 4;
      W.u16 w 0;
      W.zeros w 4;
      List.iter
        (fun (s : Of_types.Port_stats.t) ->
          W.u32 w (Int32.of_int s.port_no);
          W.zeros w 4;
          W.u64 w s.rx_packets;
          W.u64 w s.tx_packets;
          W.u64 w s.rx_bytes;
          W.u64 w s.tx_bytes;
          W.u64 w s.rx_dropped;
          W.u64 w s.tx_dropped;
          W.zeros w 56 (* error counters + duration: unused *))
        ports);
    t_multipart_rep, W.contents w
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

(* --- decode ------------------------------------------------------------------------- *)

let ( let* ) = Result.bind

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
    Ok
      (Features_reply
         { datapath_id; n_buffers; n_tables; capabilities; ports = None })
  | ty when ty = t_packet_in ->
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let total_len = R.u16 r in
    let reason =
      if R.u8 r = 0 then Of_types.No_match else Of_types.Action_explicit
    in
    let _table_id = R.u8 r in
    let _cookie = R.u64 r in
    let* m = decode_match r in
    R.skip r 2;
    let in_port = Option.value m.Of_match.in_port ~default:0 in
    Ok (Packet_in { buffer_id; total_len; reason; in_port; data = R.rest r })
  | ty when ty = t_packet_out ->
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let in_port_raw = Int32.to_int (R.u32 r) land 0xffffffff in
    let actions_len = R.u16 r in
    R.skip r 6;
    let* actions = decode_actions r ~len:actions_len in
    Ok
      (Packet_out
         { buffer_id;
           in_port = (if in_port_raw = p13_any then None else Some in_port_raw);
           actions;
           data = R.rest r })
  | ty when ty = t_flow_mod ->
    let cookie = R.u64 r in
    let _cookie_mask = R.u64 r in
    let table_id = R.u8 r in
    let cmd = R.u8 r in
    let idle_timeout = R.u16 r in
    let hard_timeout = R.u16 r in
    let priority = R.u16 r in
    let buffer_id = buffer_id_of_wire (R.u32 r) in
    let _out_port = R.u32 r in
    let _out_group = R.u32 r in
    let flags = R.u16 r in
    R.skip r 2;
    let* of_match = decode_match r in
    let* actions = decode_instructions r ~stop:(R.pos r + R.remaining r) in
    let* command =
      match cmd with
      | 0 -> Ok Add
      | 1 | 2 -> Ok Modify
      | 3 -> Ok Delete
      | 4 -> Ok Delete_strict
      | n -> malformed "unknown flow_mod command %d" n
    in
    Ok
      (Flow_mod
         { table_id; of_match; cookie; command; idle_timeout; hard_timeout;
           priority; buffer_id; notify_removal = flags land 1 <> 0;
           actions })
  | ty when ty = t_flow_removed ->
    let cookie = R.u64 r in
    let priority = R.u16 r in
    let reason_raw = R.u8 r in
    let table_id = R.u8 r in
    let duration_s = Int32.to_int (R.u32 r) in
    R.skip r 4;
    let _idle = R.u16 r in
    let _hard = R.u16 r in
    let packets = R.u64 r in
    let bytes = R.u64 r in
    let* of_match = decode_match r in
    let reason =
      match reason_raw with
      | 0 -> Of_types.Idle_timeout_hit
      | 1 -> Of_types.Hard_timeout_hit
      | _ -> Of_types.Flow_deleted
    in
    Ok
      (Flow_removed
         { table_id; of_match; cookie; priority; reason; duration_s; packets; bytes })
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
    let port_no = Int32.to_int (R.u32 r) in
    R.skip r 4;
    R.skip r 6;
    R.skip r 2;
    let config = R.u32 r in
    let _mask = R.u32 r in
    Ok (Port_mod { port_no; admin_down = Int32.logand config 1l <> 0l })
  | ty when ty = t_multipart_req ->
    let sty = R.u16 r in
    let _flags = R.u16 r in
    R.skip r 4;
    (match sty with
    | 13 -> Ok (Stats_request Port_desc_req)
    | 1 ->
      let table_raw = R.u8 r in
      R.skip r 3;
      R.skip r 4;
      R.skip r 4;
      R.skip r 4;
      let _cookie = R.u64 r in
      let _cookie_mask = R.u64 r in
      let* of_match = decode_match r in
      Ok
        (Stats_request
           (Flow_stats_req
              { table_id = (if table_raw = 0xff then None else Some table_raw);
                of_match }))
    | 4 ->
      let port = Int32.to_int (R.u32 r) land 0xffffffff in
      Ok
        (Stats_request
           (Port_stats_req (if port = p13_any then None else Some port)))
    | n -> malformed "unknown multipart request type %d" n)
  | ty when ty = t_multipart_rep ->
    let sty = R.u16 r in
    let _flags = R.u16 r in
    R.skip r 4;
    (match sty with
    | 13 ->
      let rec ports acc =
        if R.remaining r < 64 then List.rev acc
        else ports (decode_port r :: acc)
      in
      Ok (Stats_reply (Port_desc_rep (ports [])))
    | 1 ->
      let rec entries acc =
        if R.remaining r < 2 then Ok (List.rev acc)
        else begin
          let entry_len = R.u16 r in
          let stop = R.pos r - 2 + entry_len in
          let table_id = R.u8 r in
          R.skip r 1;
          let duration_s = Int32.to_int (R.u32 r) in
          R.skip r 4;
          let priority = R.u16 r in
          let idle_timeout = R.u16 r in
          let hard_timeout = R.u16 r in
          R.skip r 6;
          let cookie = R.u64 r in
          let packets = R.u64 r in
          let bytes = R.u64 r in
          let* of_match = decode_match r in
          let* actions = decode_instructions r ~stop in
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
        if R.remaining r < 112 then List.rev acc
        else begin
          let port_no = Int32.to_int (R.u32 r) in
          R.skip r 4;
          let rx_packets = R.u64 r in
          let tx_packets = R.u64 r in
          let rx_bytes = R.u64 r in
          let tx_bytes = R.u64 r in
          let rx_dropped = R.u64 r in
          let tx_dropped = R.u64 r in
          R.skip r 56;
          entries
            ({ Of_types.Port_stats.port_no; rx_packets; tx_packets; rx_bytes;
               tx_bytes; rx_dropped; tx_dropped }
            :: acc)
        end
      in
      Ok (Stats_reply (Port_stats_rep (entries [])))
    | n -> malformed "unknown multipart reply type %d" n)
  | ty when ty = t_barrier_req -> Ok Barrier_request
  | ty when ty = t_barrier_rep -> Ok Barrier_reply
  | ty -> malformed "unknown OF1.3 message type %d" ty

let decode s =
  try
    let r = R.of_string s in
    let v = R.u8 r in
    if v <> version then malformed "bad version %d (want 4)" v
    else begin
      let ty = R.u8 r in
      let len = R.u16 r in
      let xid = R.u32 r in
      if len <> String.length s then
        malformed "length mismatch: header %d, actual %d" len (String.length s)
      else Result.map (fun m -> xid, m) (decode_body ty r)
    end
  with R.Truncated -> malformed "truncated message"
