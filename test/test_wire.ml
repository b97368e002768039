(* Golden wire bytes: every message the driver and the switch agent
   send each other, in both dialects, captured off the control channel
   and pinned per message kind as a count and an MD5 digest.

   One scenario drives a single switch through handshake, port pushes,
   flow installs and removals (strict delete, idle expiry), a packet-in,
   a packet-out, an admin port-down, periodic stats, keepalives in both
   directions, a malformed message and a disconnect with its reconnect
   and resync. Transaction ids are zeroed before hashing: they number
   requests, they are not part of any message's layout. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow

let cred = Vfs.Cred.root

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

(* Zero the xid (header bytes 4..7). *)
let mask_xid raw =
  let b = Bytes.of_string raw in
  Bytes.fill b 4 4 '\000';
  Bytes.to_string b

(* "v<version> t<type>", plus ".<subtype>" for stats/multipart messages
   (OF 1.0 types 16/17, OF 1.3 types 18/19). *)
let kind raw =
  let byte i = Char.code raw.[i] in
  let version = byte 0 and ty = byte 1 in
  let stats =
    (version = 1 && (ty = 16 || ty = 17)) || (version = 4 && (ty = 18 || ty = 19))
  in
  if stats then Printf.sprintf "v%d t%d.%d" version ty ((byte 8 lsl 8) lor byte 9)
  else Printf.sprintf "v%d t%d" version ty

(* (kind, count, digest of the masked messages concatenated in order),
   sorted by kind. *)
let summarize chunks =
  let framing = OF.Framing.create () in
  List.iter (OF.Framing.push framing) chunks;
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun raw ->
      let k = kind raw in
      let prev = Option.value (Hashtbl.find_opt by_kind k) ~default:[] in
      Hashtbl.replace by_kind k (mask_xid raw :: prev))
    (OF.Framing.pop_all framing);
  Hashtbl.fold
    (fun k msgs acc ->
      let msgs = List.rev msgs in
      (k, List.length msgs, Digest.to_hex (Digest.string (String.concat "" msgs)))
      :: acc)
    by_kind []
  |> List.sort compare

let flow ?(idle = 0) ?(hard = 0) ~cookie ~priority ~in_port out =
  { Y.Flowdir.default with
    Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.in_port = Some in_port };
    actions = [ OF.Action.Output (OF.Action.Physical out) ];
    priority; cookie; idle_timeout = idle; hard_timeout = hard }

(* Run the scenario; (driver→switch, switch→driver) summaries. *)
let capture version =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let net = built.N.Topo_gen.net in
  let fs = Vfs.Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let tuning =
    { Driver.Driver_intf.default_tuning with
      Driver.Driver_intf.keepalive_interval = 1.0; stats_interval = 2.0 }
  in
  let mgr = Driver.Manager.create ~tuning ~yfs ~net () in
  Driver.Manager.attach mgr ~dpid:1L ~version;
  let sw_end, ctl_end = Option.get (Driver.Manager.channel mgr ~dpid:1L) in
  let from_driver = ref [] and from_agent = ref [] in
  N.Control_channel.set_tap ctl_end (fun b -> from_driver := b :: !from_driver);
  N.Control_channel.set_tap sw_end (fun b -> from_agent := b :: !from_agent);
  (* The driver's opening hello and features-request were sent before
     the tap existed: take them back off the wire and send them again
     through it. *)
  List.iter (N.Control_channel.send ctl_end) (N.Control_channel.recv_all sw_end);
  let run now = Driver.Manager.run_control mgr ~now in
  run 0.;
  (* Flow installs: one with a hard timeout (notify on removal), one
     with an idle timeout that will expire. *)
  ok
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f1"
       (flow ~hard:100 ~cookie:7L ~priority:10 ~in_port:1 2));
  ok
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f2"
       (flow ~idle:1 ~cookie:5L ~priority:20 ~in_port:9 1));
  run 0.1;
  (* A table miss from h2 (port 2) becomes a packet-in. *)
  let h2 = Option.get (N.Network.host net "h2") in
  N.Network.send_from_host net "h2"
    (N.Sim_host.ping h2 ~now:0.1 ~dst:(N.Topo_gen.host_ip 1) ~seq:1);
  N.Network.run net;
  run 0.2;
  (* A packet-out through the spool. *)
  ignore
    (ok
       (Y.Outdir.submit yfs ~cred ~switch:"sw1"
          ~in_port:1 ~actions:[ OF.Action.Output (OF.Action.Physical 2) ]
          ~data:"golden-payload" ()));
  run 0.3;
  (* Admin port-down: a port-mod, answered by a port-status. *)
  ok
    (Vfs.Fs.write_file fs ~cred
       (Vfs.Path.child
          (Y.Layout.port ~root:Y.Layout.default_root ~switch:"sw1" 2)
          Y.Schema.config_port_down)
       "1");
  run 0.4;
  (* Keepalives both ways, stats polls and replies, f2's idle expiry. *)
  run 1.5;
  run 2.5;
  (* Strict delete of f1, answered by a flow-removed. *)
  ok (Y.Yanc_fs.delete_flow yfs ~cred ~switch:"sw1" "f1");
  run 2.6;
  (* A malformed message (unknown type) draws an error from the agent. *)
  let header = Bytes.make 8 '\000' in
  Bytes.set header 0
    (Char.chr (match version with Driver.Manager.V10 -> 1 | Driver.Manager.V13 -> 4));
  Bytes.set header 1 (Char.chr 99);
  Bytes.set header 3 (Char.chr 8);
  N.Control_channel.send ctl_end (Bytes.to_string header);
  run 2.7;
  (* A disconnect: reconnect with backoff, re-handshake, resync. A flow
     committed during the outage is installed once, by the resync. *)
  N.Control_channel.disconnect ctl_end;
  ok
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f3"
       (flow ~cookie:3L ~priority:30 ~in_port:2 1));
  List.iter run [ 2.8; 3.0; 3.5; 4.0; 5.0; 6.0 ];
  Alcotest.(check bool) "reconnected" true
    (Driver.Manager.switch_status mgr ~dpid:1L = Some Driver.Driver_intf.Connected);
  summarize (List.rev !from_driver), summarize (List.rev !from_agent)

let row = Alcotest.(list (triple string int string))

let check_golden version ~driver ~agent () =
  let d, a = capture version in
  Alcotest.check row "driver -> switch" driver d;
  Alcotest.check row "switch -> driver" agent a

let golden10_driver =
  [ ("v1 t0", 2, "7a3a7f274a2d4c0db7796b038c6c204f");
    ("v1 t13", 1, "c30849de69c82d0561f89f289d4ce80a");
    ("v1 t14", 4, "bafcee8a42f2db85a1a001c6167c36b9");
    ("v1 t15", 3, "dc7e8e1908075c80597c01141ccf66e2");
    ("v1 t16.1", 4, "5811685cb9c4c36312c8e90d73eb4f38");
    ("v1 t16.4", 2, "c48fbe0036d2b688e5a15577b84e3be4");
    ("v1 t2", 5, "5be4294b3bd7ab32ee511bbdc5471aa3");
    ("v1 t3", 5, "f09c5ab2955b7641481db150ef867098");
    ("v1 t5", 2, "6f5b49d066c1bdd5e0b9bf8ec2d310e2");
    ("v1 t99", 1, "20061722617c798293de96fa74a0409f") ]

let golden10_agent =
  [ ("v1 t0", 2, "7a3a7f274a2d4c0db7796b038c6c204f");
    ("v1 t1", 1, "d6c7d9bd5567bc0ea17b151fb3ad72b1");
    ("v1 t10", 1, "87a574f346b6372fb8508357a1d29f76");
    ("v1 t11", 2, "ed282cd70a72a2109b454d2f7584102f");
    ("v1 t12", 1, "299482cac5bc9b1e5f97ac519bd83a1f");
    ("v1 t17.1", 4, "aed81ab4540df6222a7cbb5874503bb4");
    ("v1 t17.4", 2, "85092a8fa6a4022099b0121c8ccb41d5");
    ("v1 t2", 5, "202950e63f32c4d01bb0bdbf8266d63b");
    ("v1 t3", 5, "749f8ae104d688304223707109092192");
    ("v1 t6", 2, "4ae7a69c7f55e75b88646d14897ff293") ]

let golden13_driver =
  [ ("v4 t0", 2, "5ff215cd00688acf447649251229702f");
    ("v4 t13", 1, "0ceff4e1e5ca93ba5cfedda67bcc44e7");
    ("v4 t14", 4, "5539bd08cfdc78d439c07927fa5714cc");
    ("v4 t16", 3, "fe28e454bc8a6b22a6ec350199d44281");
    ("v4 t18.1", 4, "6f4aa6e2d8552302853e8df09a33386d");
    ("v4 t18.13", 2, "b38590f0459039a70132cf892dba08ee");
    ("v4 t18.4", 2, "5b4a3c1c9b3ad440ad8400f145d5247d");
    ("v4 t2", 5, "327e692fd70ce60647df8e17d58858a2");
    ("v4 t3", 5, "e172402f946bebfad2069ca2c91d21c8");
    ("v4 t5", 2, "783d195e75ed7f3633d2d541aef0825a");
    ("v4 t99", 1, "c6308f8e0059ceb64ccbce7f36b7e3d5") ]

let golden13_agent =
  [ ("v4 t0", 2, "5ff215cd00688acf447649251229702f");
    ("v4 t1", 1, "7718ef4b55aab626a85dc9081f944c28");
    ("v4 t10", 1, "f14fb5a91159b627d16db1f14e5356b0");
    ("v4 t11", 2, "596f7af7e9a8ad421c90feb3ad40812c");
    ("v4 t12", 1, "1acacd817f56b0ad1df817b0654eeb99");
    ("v4 t19.1", 4, "808d0db74fb1f643bae42da5877fa5c6");
    ("v4 t19.13", 2, "261d3b6f21dd3ef08de2337cdd22e7e3");
    ("v4 t19.4", 2, "5ca69db49f7dda2814c3d3f5a8b725ff");
    ("v4 t2", 5, "5f0b103e75f7914f2f072af2d9680b8f");
    ("v4 t3", 5, "931d7ef7eb8b3ba258266caf7a928146");
    ("v4 t6", 2, "3a469a1bfe8d79426660c1ceba4e669e") ]

let () =
  Alcotest.run "wire"
    [ ( "golden bytes",
        [ Alcotest.test_case "openflow10" `Quick
            (check_golden Driver.Manager.V10 ~driver:golden10_driver
               ~agent:golden10_agent);
          Alcotest.test_case "openflow13" `Quick
            (check_golden Driver.Manager.V13 ~driver:golden13_driver
               ~agent:golden13_agent) ] ) ]
