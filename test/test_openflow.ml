(* Tests for the OF 1.0 / 1.3 codecs, matches and actions. *)

module OF = Openflow
module P = Packet

let m s = Option.get (P.Mac.of_string s)

let a s = Option.get (P.Ipv4_addr.of_string s)

let pfx s = Option.get (P.Ipv4_addr.Prefix.of_string s)

let of_match = Alcotest.testable OF.Of_match.pp OF.Of_match.equal

let headers frame in_port = P.Headers.of_eth ~in_port frame

let tcp_frame ?(dst_port = 22) () =
  P.Builder.tcp_syn ~src_mac:(m "02:00:00:00:00:01")
    ~dst_mac:(m "02:00:00:00:00:02") ~src_ip:(a "10.0.0.1")
    ~dst_ip:(a "10.1.2.3") ~src_port:4000 ~dst_port

module Msg = OF.Msg

(* A flow-mod with neutral defaults; each test sets what it exercises. *)
let flow_mod ?(table_id = 0) ?(command = Msg.Add) ?(of_match = OF.Of_match.any)
    actions =
  Msg.Flow_mod
    { table_id; of_match; cookie = 0L; command; idle_timeout = 0;
      hard_timeout = 0; priority = 1; buffer_id = None; notify_removal = false;
      actions }

(* --- Of_match ----------------------------------------------------------------- *)

let test_match_any () =
  let h = headers (tcp_frame ()) 3 in
  Alcotest.(check bool) "any matches" true (OF.Of_match.matches OF.Of_match.any h);
  Alcotest.(check int) "specificity 0" 0 (OF.Of_match.specificity OF.Of_match.any)

let test_match_fields () =
  let h = headers (tcp_frame ()) 3 in
  let match22 =
    { OF.Of_match.any with
      OF.Of_match.dl_type = Some 0x0800;
      nw_proto = Some 6;
      tp_dst = Some 22 }
  in
  Alcotest.(check bool) "ssh flow matches" true (OF.Of_match.matches match22 h);
  let h80 = headers (tcp_frame ~dst_port:80 ()) 3 in
  Alcotest.(check bool) "http misses" false (OF.Of_match.matches match22 h80);
  let port_match = { OF.Of_match.any with OF.Of_match.in_port = Some 3 } in
  Alcotest.(check bool) "in_port" true (OF.Of_match.matches port_match h);
  let wrong_port = { OF.Of_match.any with OF.Of_match.in_port = Some 4 } in
  Alcotest.(check bool) "wrong in_port" false (OF.Of_match.matches wrong_port h)

let test_match_prefix () =
  let h = headers (tcp_frame ()) 1 in
  let inside = { OF.Of_match.any with OF.Of_match.nw_dst = Some (pfx "10.1.0.0/16") } in
  let outside = { OF.Of_match.any with OF.Of_match.nw_dst = Some (pfx "10.2.0.0/16") } in
  Alcotest.(check bool) "cidr inside" true (OF.Of_match.matches inside h);
  Alcotest.(check bool) "cidr outside" false (OF.Of_match.matches outside h)

let test_match_exact_of_headers () =
  let h = headers (tcp_frame ()) 5 in
  let exact = OF.Of_match.exact_of_headers h in
  Alcotest.(check bool) "exact matches source" true (OF.Of_match.matches exact h);
  Alcotest.(check bool) "is_exact" true (OF.Of_match.is_exact exact);
  let h2 = headers (tcp_frame ~dst_port:23 ()) 5 in
  Alcotest.(check bool) "exact rejects different packet" false
    (OF.Of_match.matches exact h2)

let test_match_subsumes () =
  let broad = { OF.Of_match.any with OF.Of_match.dl_type = Some 0x0800 } in
  let narrow =
    { OF.Of_match.any with
      OF.Of_match.dl_type = Some 0x0800;
      nw_dst = Some (pfx "10.0.0.0/8") }
  in
  Alcotest.(check bool) "any subsumes broad" true
    (OF.Of_match.subsumes OF.Of_match.any broad);
  Alcotest.(check bool) "broad subsumes narrow" true (OF.Of_match.subsumes broad narrow);
  Alcotest.(check bool) "narrow !subsumes broad" false
    (OF.Of_match.subsumes narrow broad);
  Alcotest.(check bool) "reflexive" true (OF.Of_match.subsumes narrow narrow)

let test_match_intersect () =
  let ssh = { OF.Of_match.any with OF.Of_match.tp_dst = Some 22 } in
  let subnet = { OF.Of_match.any with OF.Of_match.nw_src = Some (pfx "10.0.0.0/8") } in
  (match OF.Of_match.intersect ssh subnet with
  | None -> Alcotest.fail "should intersect"
  | Some meet ->
    Alcotest.(check (option int)) "tp kept" (Some 22) meet.OF.Of_match.tp_dst;
    Alcotest.(check bool) "prefix kept" true
      (meet.OF.Of_match.nw_src = Some (pfx "10.0.0.0/8")));
  let telnet = { OF.Of_match.any with OF.Of_match.tp_dst = Some 23 } in
  Alcotest.(check bool) "disjoint ports" true (OF.Of_match.intersect ssh telnet = None);
  let sub16 = { OF.Of_match.any with OF.Of_match.nw_src = Some (pfx "10.1.0.0/16") } in
  match OF.Of_match.intersect subnet sub16 with
  | Some meet ->
    Alcotest.(check bool) "narrower prefix wins" true
      (meet.OF.Of_match.nw_src = Some (pfx "10.1.0.0/16"))
  | None -> Alcotest.fail "prefixes overlap"

let test_match_fields_roundtrip () =
  let full =
    { OF.Of_match.in_port = Some 2;
      dl_src = Some (m "02:00:00:00:00:01");
      dl_dst = Some (m "02:00:00:00:00:02");
      dl_vlan = Some 100;
      dl_vlan_pcp = Some 3;
      dl_type = Some 0x0800;
      nw_src = Some (pfx "10.0.0.0/24");
      nw_dst = Some (pfx "10.0.1.5");
      nw_proto = Some 6;
      nw_tos = Some 16;
      tp_src = Some 1000;
      tp_dst = Some 22 }
  in
  let fields = OF.Of_match.to_fields full in
  Alcotest.(check int) "12 fields" 12 (List.length fields);
  (match OF.Of_match.of_fields fields with
  | Ok back -> Alcotest.check of_match "field roundtrip" full back
  | Error e -> Alcotest.failf "of_fields: %s" e);
  Alcotest.(check bool) "bad field name" true
    (Result.is_error (OF.Of_match.of_fields [ "tp_dst_wrong", "22" ]));
  Alcotest.(check bool) "bad value" true
    (Result.is_error (OF.Of_match.of_fields [ "nw_src", "not-an-ip" ]))

(* --- Actions --------------------------------------------------------------------- *)

let test_action_fields () =
  let actions =
    [ OF.Action.Set_vlan 10;
      OF.Action.Set_dl_dst (m "02:00:00:00:00:09");
      OF.Action.Output (OF.Action.Physical 3) ]
  in
  let fields = OF.Action.to_fields actions in
  Alcotest.(check (list string)) "file names"
    [ "action.0.set_vlan"; "action.1.set_dl_dst"; "action.2.out" ]
    (List.map fst fields);
  match OF.Action.of_fields fields with
  | Ok back ->
    Alcotest.(check bool) "roundtrip" true (List.for_all2 OF.Action.equal actions back)
  | Error e -> Alcotest.failf "of_fields: %s" e

let test_action_fields_unordered () =
  let fields = [ "action.1.out", "flood"; "action.0.set_vlan", "5" ] in
  match OF.Action.of_fields fields with
  | Ok [ OF.Action.Set_vlan 5; OF.Action.Output OF.Action.Flood ] -> ()
  | Ok other ->
    Alcotest.failf "wrong order: %s" (Format.asprintf "%a" OF.Action.pp_list other)
  | Error e -> Alcotest.fail e

let test_action_paper_form () =
  match OF.Action.of_fields [ "action.out", "2" ] with
  | Ok [ OF.Action.Output (OF.Action.Physical 2) ] -> ()
  | _ -> Alcotest.fail "bare action.out should parse"

let test_action_ports () =
  let cases =
    [ "3", OF.Action.Physical 3; "in_port", OF.Action.In_port;
      "flood", OF.Action.Flood; "all", OF.Action.All;
      "controller", OF.Action.Controller 0;
      "controller:64", OF.Action.Controller 64; "drop", OF.Action.Drop ]
  in
  List.iter
    (fun (s, expected) ->
      match OF.Action.parse_one ~kind:"out" s with
      | Ok (OF.Action.Output p) ->
        Alcotest.(check bool) ("port " ^ s) true (p = expected)
      | _ -> Alcotest.failf "failed to parse port %S" s)
    cases;
  Alcotest.(check bool) "garbage port" true
    (Result.is_error (OF.Action.parse_one ~kind:"out" "chaos"))

let test_action_enqueue () =
  (* file form *)
  (match OF.Action.of_fields [ "action.0.enqueue", "3:1" ] with
  | Ok [ OF.Action.Enqueue { port = 3; queue_id = 1 } ] -> ()
  | _ -> Alcotest.fail "enqueue file form");
  Alcotest.(check bool) "bad enqueue" true
    (Result.is_error (OF.Action.parse_one ~kind:"enqueue" "3"));
  (* OF 1.0 wire: native OFPAT_ENQUEUE *)
  (match
     OF.Of10.decode
       (OF.Of10.encode ~xid:0l
          (flow_mod [ OF.Action.Enqueue { port = 2; queue_id = 7 } ]))
   with
  | Ok (_, Msg.Flow_mod { actions = [ OF.Action.Enqueue { port = 2; queue_id = 7 } ]; _ })
    -> ()
  | _ -> Alcotest.fail "of10 enqueue roundtrip");
  (* OF 1.3 wire: SET_QUEUE + OUTPUT pair, merged back on decode *)
  match
    OF.Of13.decode
      (OF.Of13.encode ~xid:0l
         (flow_mod
            [ OF.Action.Set_vlan 5;
              OF.Action.Enqueue { port = 4; queue_id = 2 };
              OF.Action.Output OF.Action.Flood ]))
  with
  | Ok (_, Msg.Flow_mod { actions = acts; _ }) ->
    Alcotest.(check bool) "of13 enqueue reconstructed" true
      (acts
      = [ OF.Action.Set_vlan 5;
          OF.Action.Enqueue { port = 4; queue_id = 2 };
          OF.Action.Output OF.Action.Flood ])
  | _ -> Alcotest.fail "of13 enqueue roundtrip"

let test_action_rewrites () =
  let frame = tcp_frame () in
  let rewritten =
    OF.Action.apply_rewrites
      [ OF.Action.Set_dl_src (m "02:aa:aa:aa:aa:aa");
        OF.Action.Set_nw_dst (a "99.0.0.1");
        OF.Action.Set_tp_dst 2222;
        OF.Action.Set_vlan 77 ]
      frame
  in
  Alcotest.(check string) "mac rewritten" "02:aa:aa:aa:aa:aa"
    (P.Mac.to_string rewritten.P.Eth.src);
  (match rewritten.P.Eth.payload with
  | P.Eth.Ipv4 ip ->
    Alcotest.(check string) "ip rewritten" "99.0.0.1"
      (P.Ipv4_addr.to_string ip.P.Ipv4.dst);
    (match ip.P.Ipv4.payload with
    | P.Ipv4.Tcp tcp -> Alcotest.(check int) "port rewritten" 2222 tcp.P.Tcp.dst_port
    | _ -> Alcotest.fail "tcp gone")
  | _ -> Alcotest.fail "ip gone");
  Alcotest.(check (option int)) "vlan pushed" (Some 77)
    (Option.map (fun (v : P.Eth.vlan) -> v.vid) rewritten.P.Eth.vlan);
  let untagged = OF.Action.apply_rewrites [ OF.Action.Strip_vlan ] rewritten in
  Alcotest.(check bool) "vlan stripped" true (untagged.P.Eth.vlan = None)

(* --- OF 1.0 codec ------------------------------------------------------------------ *)

let roundtrip10 msg =
  match OF.Of10.decode (OF.Of10.encode ~xid:42l msg) with
  | Ok (xid, back) ->
    Alcotest.(check int32) "xid" 42l xid;
    back
  | Error e -> Alcotest.failf "of10 %s: %s" (Msg.msg_name msg) e.Msg.data

let some_match =
  { OF.Of_match.any with
    OF.Of_match.in_port = Some 1;
    dl_type = Some 0x0800;
    nw_dst = Some (pfx "10.0.0.0/8");
    nw_proto = Some 6;
    tp_dst = Some 22 }

let test_of10_simple_messages () =
  List.iter
    (fun msg ->
      let back = roundtrip10 msg in
      Alcotest.(check string) "same message" (Msg.msg_name msg)
        (Msg.msg_name back))
    [ Msg.Hello; Msg.Features_request; Msg.Barrier_request;
      Msg.Barrier_reply; Msg.Echo_request "ping";
      Msg.Echo_reply "pong" ]

let test_of10_features () =
  let ports =
    [ OF.Of_types.Port_info.make ~port_no:1 ~hw_addr:(m "02:00:00:00:01:01") ();
      OF.Of_types.Port_info.make ~admin_down:true ~port_no:2
        ~hw_addr:(m "02:00:00:00:01:02") () ]
  in
  let msg =
    Msg.Features_reply
      { datapath_id = 0xabcdefL; n_buffers = 256; n_tables = 1;
        capabilities = OF.Of_types.Capabilities.default; ports = Some ports }
  in
  match roundtrip10 msg with
  | Msg.Features_reply { datapath_id; n_buffers; ports = Some ports; _ } ->
    Alcotest.(check int64) "dpid" 0xabcdefL datapath_id;
    Alcotest.(check int) "buffers" 256 n_buffers;
    Alcotest.(check int) "ports" 2 (List.length ports);
    let p2 = List.nth ports 1 in
    Alcotest.(check bool) "admin_down survived" true
      p2.OF.Of_types.Port_info.admin_down;
    Alcotest.(check string) "port name" "port_2" p2.OF.Of_types.Port_info.name
  | _ -> Alcotest.fail "wrong message"

let test_of10_flow_mod () =
  let msg =
    Msg.Flow_mod
      { table_id = 0; of_match = some_match; cookie = 7L; command = Msg.Add;
        idle_timeout = 30; hard_timeout = 300; priority = 0x8000;
        buffer_id = Some 55l; notify_removal = true;
        actions =
          [ OF.Action.Set_dl_src (m "02:00:00:00:00:07");
            OF.Action.Set_nw_tos 8;
            OF.Action.Output (OF.Action.Physical 2) ] }
  in
  match roundtrip10 msg with
  | Msg.Flow_mod fm ->
    Alcotest.check of_match "match" some_match fm.of_match;
    Alcotest.(check int) "idle" 30 fm.idle_timeout;
    Alcotest.(check bool) "notify flag" true fm.notify_removal;
    Alcotest.(check (option int32)) "buffer" (Some 55l) fm.buffer_id;
    Alcotest.(check int) "3 actions" 3 (List.length fm.actions)
  | _ -> Alcotest.fail "wrong message"

let test_of10_packet_in_out () =
  let data = P.Eth.to_wire (tcp_frame ()) in
  (match
     roundtrip10
       (Msg.Packet_in
          { buffer_id = None; total_len = String.length data; in_port = 4;
            reason = OF.Of_types.No_match; data })
   with
  | Msg.Packet_in pi ->
    Alcotest.(check int) "in_port" 4 pi.in_port;
    Alcotest.(check string) "payload intact" data pi.data;
    Alcotest.(check bool) "reason" true (pi.reason = OF.Of_types.No_match)
  | _ -> Alcotest.fail "wrong message");
  match
    roundtrip10
      (Msg.Packet_out
         { buffer_id = Some 9l; in_port = Some 1;
           actions = [ OF.Action.Output OF.Action.Flood ]; data = "" })
  with
  | Msg.Packet_out po ->
    Alcotest.(check (option int32)) "buffer" (Some 9l) po.buffer_id;
    Alcotest.(check (option int)) "in_port" (Some 1) po.in_port
  | _ -> Alcotest.fail "wrong message"

let test_of10_stats () =
  let stats =
    { OF.Of_types.Flow_stats.of_match = some_match; priority = 10; cookie = 3L;
      packets = 100L; bytes = 6400L; duration_s = 5; idle_timeout = 0;
      hard_timeout = 0; actions = [ OF.Action.Output (OF.Action.Physical 1) ] }
  in
  (match roundtrip10 (Msg.Stats_reply (Msg.Flow_stats_rep [ (0, stats) ])) with
  | Msg.Stats_reply (Msg.Flow_stats_rep [ (0, s) ]) ->
    Alcotest.(check int64) "packets" 100L s.packets;
    Alcotest.check of_match "match" some_match s.of_match
  | _ -> Alcotest.fail "wrong reply");
  let pstats =
    [ { (OF.Of_types.Port_stats.zero 3) with OF.Of_types.Port_stats.rx_packets = 42L } ]
  in
  match roundtrip10 (Msg.Stats_reply (Msg.Port_stats_rep pstats)) with
  | Msg.Stats_reply (Msg.Port_stats_rep [ s ]) ->
    Alcotest.(check int) "port" 3 s.port_no;
    Alcotest.(check int64) "rx" 42L s.rx_packets
  | _ -> Alcotest.fail "wrong reply"

let test_flow_mod_commands_roundtrip () =
  List.iter
    (fun command ->
      match roundtrip10 (flow_mod ~command ~of_match:some_match []) with
      | Msg.Flow_mod fm ->
        Alcotest.(check bool) "of10 command preserved" true (fm.command = command)
      | _ -> Alcotest.fail "wrong message")
    [ Msg.Add; Msg.Modify; Msg.Delete; Msg.Delete_strict ]

let test_of10_errors () =
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (OF.Of10.decode "junk"));
  Alcotest.(check bool) "wrong version" true
    (Result.is_error (OF.Of10.decode (OF.Of13.encode ~xid:1l Msg.Hello)));
  let truncated = String.sub (OF.Of10.encode ~xid:1l Msg.Hello) 0 4 in
  Alcotest.(check bool) "truncated" true (Result.is_error (OF.Of10.decode truncated));
  (* OF 1.0 has no port-desc: its features reply carries the ports. *)
  Alcotest.(check bool) "no port-desc in 1.0" true
    (match OF.Of10.encode ~xid:1l (Msg.Stats_request Msg.Port_desc_req) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- OF 1.3 codec ------------------------------------------------------------------- *)

let roundtrip13 msg =
  match OF.Of13.decode (OF.Of13.encode ~xid:7l msg) with
  | Ok (xid, back) ->
    Alcotest.(check int32) "xid" 7l xid;
    back
  | Error e -> Alcotest.failf "of13 %s: %s" (Msg.msg_name msg) e.Msg.data

(* An encoded message with raw bytes appended to its body, the header's
   length fixed up. *)
let append_body raw extra =
  let b = Bytes.of_string (raw ^ extra) in
  Bytes.set_uint16_be b 2 (Bytes.length b);
  Bytes.to_string b

(* OFPIT_GOTO_TABLE to table [n]. *)
let goto_table n =
  let w = P.Wire.W.create () in
  P.Wire.W.u16 w 1;
  P.Wire.W.u16 w 8;
  P.Wire.W.u8 w n;
  P.Wire.W.zeros w 3;
  P.Wire.W.contents w

let refused raw =
  match OF.Of13.decode raw with
  | Error { Msg.ty = Msg.Bad_instruction; _ } -> true
  | Ok _ | Error _ -> false

let test_of13_flow_mod () =
  let actions = [ OF.Action.Set_vlan 5; OF.Action.Output (OF.Action.Physical 1) ] in
  let msg =
    Msg.Flow_mod
      { table_id = 2; of_match = some_match; cookie = 9L; command = Msg.Add;
        idle_timeout = 10; hard_timeout = 0; priority = 100; buffer_id = None;
        notify_removal = false; actions }
  in
  (match roundtrip13 msg with
  | Msg.Flow_mod fm ->
    Alcotest.(check int) "table" 2 fm.table_id;
    Alcotest.check of_match "oxm match" some_match fm.of_match;
    Alcotest.(check bool) "actions kept" true (fm.actions = actions)
  | _ -> Alcotest.fail "wrong message");
  (* The switch models no goto: apply-actions followed by a goto is
     refused whole, not installed with the goto dropped. So is a lone
     goto, and so is a second apply-actions. *)
  Alcotest.(check bool) "apply-actions + goto refused" true
    (refused (append_body (OF.Of13.encode ~xid:7l msg) (goto_table 3)));
  Alcotest.(check bool) "lone goto refused" true
    (refused
       (append_body
          (OF.Of13.encode ~xid:7l (flow_mod ~command:Msg.Delete []))
          (goto_table 3)));
  let apply_only =
    let raw = OF.Of13.encode ~xid:7l (flow_mod [ OF.Action.Strip_vlan ]) in
    (* the last 16 bytes: instruction header + POP_VLAN *)
    String.sub raw (String.length raw - 16) 16
  in
  Alcotest.(check bool) "two apply-actions refused" true
    (refused (append_body (OF.Of13.encode ~xid:7l msg) apply_only));
  (* Adds carry one apply-actions instruction (8 bytes when empty),
     deletes none. *)
  let size command = String.length (OF.Of13.encode ~xid:0l (flow_mod ~command [])) in
  Alcotest.(check int) "add = delete + one empty apply-actions"
    (size Msg.Delete + 8) (size Msg.Add)

let flow_mod13 mm = flow_mod ~of_match:mm []

let test_of13_oxm_prefix () =
  let matches =
    [ { OF.Of_match.any with OF.Of_match.nw_src = Some (pfx "10.0.0.0/8") };
      { OF.Of_match.any with OF.Of_match.nw_dst = Some (pfx "192.168.1.7") };
      { OF.Of_match.any with OF.Of_match.dl_vlan = Some 99; dl_vlan_pcp = Some 2 } ]
  in
  List.iter
    (fun mm ->
      match roundtrip13 (flow_mod13 mm) with
      | Msg.Flow_mod fm -> Alcotest.check of_match "oxm roundtrip" mm fm.of_match
      | _ -> Alcotest.fail "wrong message")
    matches

let test_of13_udp_ports () =
  let mm =
    { OF.Of_match.any with
      OF.Of_match.dl_type = Some 0x0800; nw_proto = Some 17; tp_dst = Some 53 }
  in
  match roundtrip13 (flow_mod13 mm) with
  | Msg.Flow_mod fm -> Alcotest.check of_match "udp oxm" mm fm.of_match
  | _ -> Alcotest.fail "wrong message"

let test_of13_commands_roundtrip () =
  List.iter
    (fun command ->
      match roundtrip13 (flow_mod ~table_id:1 ~command ~of_match:some_match []) with
      | Msg.Flow_mod fm ->
        Alcotest.(check bool) "of13 command preserved" true (fm.command = command)
      | _ -> Alcotest.fail "wrong message")
    [ Msg.Add; Msg.Modify; Msg.Delete; Msg.Delete_strict ]

let test_of13_packet_in () =
  let data = P.Eth.to_wire (tcp_frame ()) in
  match
    roundtrip13
      (Msg.Packet_in
         { buffer_id = Some 77l; total_len = String.length data;
           reason = OF.Of_types.No_match; in_port = 6; data })
  with
  | Msg.Packet_in pi ->
    Alcotest.(check int) "in_port via oxm" 6 pi.in_port;
    Alcotest.(check string) "data" data pi.data
  | _ -> Alcotest.fail "wrong message"

let test_of13_port_desc () =
  let ports =
    [ OF.Of_types.Port_info.make ~speed_mbps:10000 ~port_no:1
        ~hw_addr:(m "02:00:00:00:02:01") () ]
  in
  match roundtrip13 (Msg.Stats_reply (Msg.Port_desc_rep ports)) with
  | Msg.Stats_reply (Msg.Port_desc_rep [ back ]) ->
    Alcotest.(check int) "speed preserved" 10000
      back.OF.Of_types.Port_info.speed_mbps
  | _ -> Alcotest.fail "wrong message"

let test_of13_set_field_actions () =
  let msg =
    Msg.Packet_out
      { buffer_id = None; in_port = Some 3;
        actions =
          [ OF.Action.Set_nw_src (a "1.2.3.4");
            OF.Action.Set_tp_dst 8080;
            OF.Action.Strip_vlan;
            OF.Action.Output (OF.Action.Controller 128) ];
        data = "payload" }
  in
  match roundtrip13 msg with
  | Msg.Packet_out po ->
    Alcotest.(check int) "4 actions" 4 (List.length po.actions);
    Alcotest.(check string) "data" "payload" po.data;
    Alcotest.(check bool) "controller maxlen" true
      (List.exists
         (fun x -> x = OF.Action.Output (OF.Action.Controller 128))
         po.actions)
  | _ -> Alcotest.fail "wrong message"

(* Error classes are numbered per dialect. A failed flow-mod is
   OFPET_FLOW_MOD_FAILED: 3 in OF 1.0, 5 in OF 1.3 (where 4 is
   OFPET_BAD_MATCH). *)
let test_error_types () =
  let wire_type encode ty =
    let raw = encode ~xid:1l (Msg.Error_msg { ty; code = 0; data = "x" }) in
    (Char.code raw.[8] lsl 8) lor Char.code raw.[9]
  in
  Alcotest.(check int) "1.0 flow_mod_failed" 3
    (wire_type OF.Of10.encode Msg.Flow_mod_failed);
  Alcotest.(check int) "1.3 flow_mod_failed" 5
    (wire_type OF.Of13.encode Msg.Flow_mod_failed);
  Alcotest.(check int) "1.3 bad_instruction" 3
    (wire_type OF.Of13.encode Msg.Bad_instruction);
  Alcotest.(check int) "hello_failed" 0 (wire_type OF.Of13.encode Msg.Hello_failed);
  List.iter
    (fun ty ->
      match roundtrip13 (Msg.Error_msg { ty; code = 1; data = "x" }) with
      | Msg.Error_msg e -> Alcotest.(check bool) "error type kept" true (e.ty = ty)
      | _ -> Alcotest.fail "wrong message")
    [ Msg.Hello_failed; Msg.Bad_instruction; Msg.Flow_mod_failed; Msg.Other_error 4 ]

(* --- framing ------------------------------------------------------------------------- *)

let test_framing () =
  let f = OF.Framing.create () in
  let m1 = OF.Of10.encode ~xid:1l Msg.Hello in
  let m2 = OF.Of10.encode ~xid:2l (Msg.Echo_request "abc") in
  let joined = m1 ^ m2 in
  OF.Framing.push f (String.sub joined 0 3);
  Alcotest.(check bool) "incomplete" true (OF.Framing.pop f = None);
  OF.Framing.push f (String.sub joined 3 6);
  OF.Framing.push f (String.sub joined 9 (String.length joined - 9));
  (match OF.Framing.pop_all f with
  | [ x; y ] ->
    Alcotest.(check string) "first" m1 x;
    Alcotest.(check string) "second" m2 y
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l));
  Alcotest.(check int) "drained" 0 (OF.Framing.buffered f);
  Alcotest.(check (option int)) "peek version" (Some 1) (OF.Framing.peek_version m1)

let test_framing_interleaved_versions () =
  let f = OF.Framing.create () in
  OF.Framing.push f (OF.Of13.encode ~xid:9l Msg.Hello);
  OF.Framing.push f (OF.Of10.encode ~xid:10l Msg.Hello);
  match OF.Framing.pop_all f with
  | [ x; y ] ->
    Alcotest.(check (option int)) "v4 first" (Some 4) (OF.Framing.peek_version x);
    Alcotest.(check (option int)) "v1 second" (Some 1) (OF.Framing.peek_version y)
  | _ -> Alcotest.fail "framing lost messages"

(* --- properties ----------------------------------------------------------------------- *)

let match_gen =
  let open QCheck.Gen in
  let omac = opt (map P.Mac.of_int (int_bound ((1 lsl 48) - 1))) in
  let oport = opt (int_range 1 0xff00) in
  let o16 = opt (int_bound 0xffff) in
  (* /0 is excluded: on the OF 1.0 wire a /0 prefix and a wildcard are
     the same bits, so the roundtrip is identity only for /1../32. *)
  let oprefix =
    opt
      (map2
         (fun base bits ->
           P.Ipv4_addr.Prefix.make (P.Ipv4_addr.of_int32 (Int32.of_int base)) bits)
         int (int_range 1 32))
  in
  let ovlan = opt (int_bound 0xfff) in
  let opcp = opt (int_bound 7) in
  let oproto = opt (oneofl [ 1; 6; 17 ]) in
  let otos = opt (map (fun v -> v land 0xfc) (int_bound 255)) in
  map
    (fun ( (in_port, dl_src, dl_dst, dl_vlan),
           ((dl_vlan_pcp, dl_type), (nw_src, nw_dst)),
           ((nw_proto, nw_tos), (tp_src, tp_dst)) ) ->
      { OF.Of_match.in_port; dl_src; dl_dst; dl_vlan; dl_vlan_pcp;
        dl_type = Option.map (fun () -> 0x0800) dl_type;
        nw_src; nw_dst; nw_proto; nw_tos; tp_src; tp_dst })
    (triple
       (quad oport omac omac ovlan)
       (pair (pair opcp (opt unit)) (pair oprefix oprefix))
       (pair (pair oproto otos) (pair o16 o16)))

let prop_match10_roundtrip =
  QCheck.Test.make ~name:"OF1.0 match wire roundtrip" ~count:300
    (QCheck.make match_gen) (fun mm ->
      match OF.Of10.decode (OF.Of10.encode ~xid:0l (flow_mod ~of_match:mm [])) with
      | Ok (_, Msg.Flow_mod fm) -> OF.Of_match.equal mm fm.of_match
      | _ -> false)

let prop_match13_roundtrip =
  QCheck.Test.make ~name:"OF1.3 OXM wire roundtrip" ~count:300
    (QCheck.make match_gen) (fun mm ->
      match OF.Of13.decode (OF.Of13.encode ~xid:0l (flow_mod13 mm)) with
      | Ok (_, Msg.Flow_mod fm) -> OF.Of_match.equal mm fm.of_match
      | _ -> false)

(* Header generator with variety in every packed field: macs, ips and
   ports from small pools (so matches derived from one header often hit
   another), optional vlan tag pushed by the rewrite engine. *)
let mac_pool = [| "02:00:00:00:00:01"; "02:00:00:00:00:02"; "02:aa:00:00:00:03" |]

let ip_pool = [| "10.0.0.1"; "10.1.2.3"; "192.168.1.9" |]

let header_gen =
  let open QCheck.Gen in
  map
    (fun ((smi, dmi, sii), (dii, spo, dpo), (inp, vlan)) ->
      let f =
        P.Builder.tcp_syn ~src_mac:(m mac_pool.(smi)) ~dst_mac:(m mac_pool.(dmi))
          ~src_ip:(a ip_pool.(sii)) ~dst_ip:(a ip_pool.(dii)) ~src_port:spo
          ~dst_port:dpo
      in
      let f =
        match vlan with
        | Some v -> OF.Action.apply_rewrites [ OF.Action.Set_vlan v ] f
        | None -> f
      in
      P.Headers.of_eth ~in_port:inp f)
    (triple
       (triple (int_bound 2) (int_bound 2) (int_bound 2))
       (triple (int_bound 2) (oneofl [ 1234; 4000 ]) (oneofl [ 22; 80; 443 ]))
       (pair (int_range 1 8) (opt (int_bound 0xfff))))

let prefix_pool =
  [| "10.0.0.0/8"; "10.0.0.0/24"; "10.1.0.0/16"; "192.168.1.0/24"; "10.1.2.3/32" |]

(* A match widened from a concrete header: each field kept exact,
   dropped, or (for the nw prefixes) replaced by a pool CIDR. Returns
   the source header too so positive matches are frequent. *)
let widened_gen =
  let open QCheck.Gen in
  map2
    (fun h (bits, (pi, pj)) ->
      let e = OF.Of_match.exact_of_headers h in
      let keep i v = if bits land (1 lsl i) <> 0 then v else None in
      ( { OF.Of_match.in_port = keep 0 e.OF.Of_match.in_port;
          dl_src = keep 1 e.OF.Of_match.dl_src;
          dl_dst = keep 2 e.OF.Of_match.dl_dst;
          dl_vlan = keep 3 e.OF.Of_match.dl_vlan;
          dl_vlan_pcp = keep 4 e.OF.Of_match.dl_vlan_pcp;
          dl_type = keep 5 e.OF.Of_match.dl_type;
          nw_src =
            (match (bits lsr 6) land 3 with
            | 0 -> None
            | 1 -> e.OF.Of_match.nw_src
            | _ -> Some (pfx prefix_pool.(pi)));
          nw_dst =
            (match (bits lsr 8) land 3 with
            | 0 -> None
            | 1 -> e.OF.Of_match.nw_dst
            | _ -> Some (pfx prefix_pool.(pj)));
          nw_proto = keep 10 e.OF.Of_match.nw_proto;
          nw_tos = keep 11 e.OF.Of_match.nw_tos;
          tp_src = keep 12 e.OF.Of_match.tp_src;
          tp_dst = keep 13 e.OF.Of_match.tp_dst },
        h ))
    header_gen
    (pair (int_bound ((1 lsl 14) - 1)) (pair (int_bound 4) (int_bound 4)))

let packed_matches mm h =
  OF.Of_match.Packed.matches (OF.Of_match.pack_rule mm)
    (OF.Of_match.Packed.of_headers h)

let prop_packed_agrees =
  QCheck.Test.make ~name:"packed matching = Of_match.matches" ~count:1000
    (QCheck.make QCheck.Gen.(pair widened_gen header_gen)) (fun ((mm, src), h) ->
      packed_matches mm src = OF.Of_match.matches mm src
      && packed_matches mm h = OF.Of_match.matches mm h)

(* Same agreement over the wire-oriented generator, whose prefixes have
   arbitrary (unnormalized) bases: both representations must treat a
   prefix whose base has host bits set as unmatchable, not mask it. *)
let prop_packed_agrees_raw =
  QCheck.Test.make ~name:"packed matching = matches (raw masks)" ~count:1000
    (QCheck.make QCheck.Gen.(pair match_gen header_gen)) (fun (mm, h) ->
      packed_matches mm h = OF.Of_match.matches mm h)

let prop_subsumes_packed =
  QCheck.Test.make ~name:"widening subsumes; subsumption sound on packed keys"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(triple widened_gen (int_bound ((1 lsl 14) - 1)) header_gen))
    (fun ((b_, src), dropbits, h) ->
      let drop i v = if dropbits land (1 lsl i) <> 0 then None else v in
      let a_ =
        { OF.Of_match.in_port = drop 0 b_.OF.Of_match.in_port;
          dl_src = drop 1 b_.OF.Of_match.dl_src;
          dl_dst = drop 2 b_.OF.Of_match.dl_dst;
          dl_vlan = drop 3 b_.OF.Of_match.dl_vlan;
          dl_vlan_pcp = drop 4 b_.OF.Of_match.dl_vlan_pcp;
          dl_type = drop 5 b_.OF.Of_match.dl_type;
          nw_src = drop 6 b_.OF.Of_match.nw_src;
          nw_dst = drop 7 b_.OF.Of_match.nw_dst;
          nw_proto = drop 8 b_.OF.Of_match.nw_proto;
          nw_tos = drop 9 b_.OF.Of_match.nw_tos;
          tp_src = drop 10 b_.OF.Of_match.tp_src;
          tp_dst = drop 11 b_.OF.Of_match.tp_dst }
      in
      OF.Of_match.subsumes a_ b_
      && List.for_all
           (fun k -> (not (packed_matches b_ k)) || packed_matches a_ k)
           [ src; h ])

let prop_intersect_packed =
  QCheck.Test.make ~name:"intersect is the packed conjunction" ~count:1000
    (QCheck.make QCheck.Gen.(triple widened_gen widened_gen header_gen))
    (fun ((a_, ha), (b_, hb), h) ->
      let agrees k =
        let ma = packed_matches a_ k
        and mb = packed_matches b_ k in
        match OF.Of_match.intersect a_ b_ with
        | Some meet -> packed_matches meet k = (ma && mb)
        | None -> not (ma && mb)
      in
      List.for_all agrees [ ha; hb; h ])

let prop_equal_hash =
  QCheck.Test.make ~name:"equal is structural; equal matches hash alike"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair match_gen match_gen))
    (fun (a, b) ->
      let copy o = Option.map Fun.id o in
      let a' =
        { a with
          OF.Of_match.in_port = copy a.OF.Of_match.in_port;
          dl_src = copy a.OF.Of_match.dl_src;
          nw_dst = copy a.OF.Of_match.nw_dst;
          tp_dst = copy a.OF.Of_match.tp_dst }
      in
      OF.Of_match.equal a b = (a = b)
      && OF.Of_match.equal a a'
      && OF.Of_match.hash a = OF.Of_match.hash a')

let prop_subsumes_implies_matches =
  QCheck.Test.make ~name:"subsumption is sound for matching" ~count:300
    (QCheck.make QCheck.Gen.(pair match_gen (int_range 1 8))) (fun (mm, port) ->
      let h = P.Headers.of_eth ~in_port:port (tcp_frame ()) in
      let exact = OF.Of_match.exact_of_headers h in
      if OF.Of_match.subsumes mm exact then OF.Of_match.matches mm h else true)

let fuzz_frame_gen =
  (* correctly framed (version+type+consistent length) random bodies *)
  QCheck.Gen.(
    map2
      (fun (version, ty) body ->
        let w = P.Wire.W.create () in
        P.Wire.W.u8 w version;
        P.Wire.W.u8 w ty;
        P.Wire.W.u16 w (8 + String.length body);
        P.Wire.W.u32 w 0l;
        P.Wire.W.string w body;
        P.Wire.W.contents w)
      (pair (oneofl [ 1; 4 ]) (int_bound 30))
      (string_size ~gen:char (int_bound 120)))

let prop_decode_never_raises =
  QCheck.Test.make ~name:"decoders never raise on framed garbage" ~count:1000
    (QCheck.make fuzz_frame_gen) (fun raw ->
      let safe f = match f raw with Ok _ | Error _ -> true in
      safe OF.Of10.decode && safe OF.Of13.decode)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_match10_roundtrip; prop_match13_roundtrip;
      prop_subsumes_implies_matches; prop_decode_never_raises;
      prop_packed_agrees; prop_packed_agrees_raw; prop_subsumes_packed;
      prop_intersect_packed; prop_equal_hash ]

let () =
  Alcotest.run "openflow"
    [ ( "match",
        [ Alcotest.test_case "any" `Quick test_match_any;
          Alcotest.test_case "fields" `Quick test_match_fields;
          Alcotest.test_case "prefix" `Quick test_match_prefix;
          Alcotest.test_case "exact" `Quick test_match_exact_of_headers;
          Alcotest.test_case "subsumes" `Quick test_match_subsumes;
          Alcotest.test_case "intersect" `Quick test_match_intersect;
          Alcotest.test_case "field files" `Quick test_match_fields_roundtrip ] );
      ( "actions",
        [ Alcotest.test_case "field files" `Quick test_action_fields;
          Alcotest.test_case "sequence order" `Quick test_action_fields_unordered;
          Alcotest.test_case "paper form" `Quick test_action_paper_form;
          Alcotest.test_case "ports" `Quick test_action_ports;
          Alcotest.test_case "enqueue" `Quick test_action_enqueue;
          Alcotest.test_case "rewrites" `Quick test_action_rewrites ] );
      ( "of10",
        [ Alcotest.test_case "simple messages" `Quick test_of10_simple_messages;
          Alcotest.test_case "features" `Quick test_of10_features;
          Alcotest.test_case "flow_mod" `Quick test_of10_flow_mod;
          Alcotest.test_case "packet in/out" `Quick test_of10_packet_in_out;
          Alcotest.test_case "stats" `Quick test_of10_stats;
          Alcotest.test_case "flow-mod commands" `Quick
            test_flow_mod_commands_roundtrip;
          Alcotest.test_case "malformed" `Quick test_of10_errors ] );
      ( "of13",
        [ Alcotest.test_case "flow_mod+instructions" `Quick test_of13_flow_mod;
          Alcotest.test_case "oxm masks" `Quick test_of13_oxm_prefix;
          Alcotest.test_case "udp oxm ports" `Quick test_of13_udp_ports;
          Alcotest.test_case "flow-mod commands" `Quick
            test_of13_commands_roundtrip;
          Alcotest.test_case "packet_in" `Quick test_of13_packet_in;
          Alcotest.test_case "port desc" `Quick test_of13_port_desc;
          Alcotest.test_case "set-field actions" `Quick test_of13_set_field_actions;
          Alcotest.test_case "error types" `Quick test_error_types ] );
      ( "framing",
        [ Alcotest.test_case "chunked" `Quick test_framing;
          Alcotest.test_case "mixed versions" `Quick test_framing_interleaved_versions ] );
      "properties", qcheck_cases ]
