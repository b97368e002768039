(* Driver tests: the FS ⇄ wire ⇄ hardware translation (paper §4.1),
   the version-file commit protocol (§3.4), packet-in fan-out (§3.5)
   and live protocol upgrade. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module Fs = Vfs.Fs
module Path = Vfs.Path

let cred = Vfs.Cred.root

let p = Path.of_string_exn

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.Errno.to_string e)

let net_root = Y.Layout.default_root

type rig = {
  net : N.Network.t;
  fs : Fs.t;
  yfs : Y.Yanc_fs.t;
  mgr : Driver.Manager.t;
  sw : N.Sim_switch.t;
}

(* One switch with two host-facing ports, fully handshaken. *)
let rig ?(version = Driver.Manager.V10) ?miss_send_len () =
  let built = N.Topo_gen.linear ?miss_send_len ~hosts_per_switch:2 1 in
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let mgr = Driver.Manager.create ~yfs ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version;
  Driver.Manager.run_control mgr ~now:0.;
  let sw = Option.get (N.Network.switch built.net 1L) in
  { net = built.net; fs; yfs; mgr; sw }

let step ?(now = 1.) r = Driver.Manager.run_control r.mgr ~now

let switch_flows r =
  List.map snd (N.Sim_switch.flow_stats r.sw ~table_id:0 ~of_match:OF.Of_match.any ())

let test_handshake_builds_switch_dir () =
  let r = rig () in
  Alcotest.(check (list string)) "switch appears" [ "sw1" ]
    (Y.Yanc_fs.switch_names r.yfs);
  Alcotest.(check (option int64)) "id file" (Some 1L) (Y.Yanc_fs.switch_dpid r.yfs "sw1");
  Alcotest.(check (option string)) "protocol file" (Some "openflow10")
    (Y.Yanc_fs.switch_protocol r.yfs "sw1");
  Alcotest.(check (list int)) "ports mirrored" [ 1; 2 ]
    (Y.Yanc_fs.port_numbers r.yfs ~cred "sw1")

let test_handshake_v13 () =
  let r = rig ~version:Driver.Manager.V13 () in
  Alcotest.(check (option string)) "protocol file" (Some "openflow13")
    (Y.Yanc_fs.switch_protocol r.yfs "sw1");
  (* ports arrive via the separate port-desc request *)
  Alcotest.(check (list int)) "ports mirrored" [ 1; 2 ]
    (Y.Yanc_fs.port_numbers r.yfs ~cred "sw1")

let flood_flow =
  { Y.Flowdir.default with
    Y.Flowdir.actions = [ OF.Action.Output OF.Action.Flood ];
    priority = 10 }

let test_flow_commit_reaches_hardware () =
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  step r;
  match switch_flows r with
  | [ e ] ->
    Alcotest.(check int) "priority" 10 e.N.Flow_table.priority;
    Alcotest.(check bool) "actions" true
      (e.N.Flow_table.actions = [ OF.Action.Output OF.Action.Flood ])
  | l -> Alcotest.failf "expected 1 hardware flow, got %d" (List.length l)

let test_flow_commit_v13 () =
  let r = rig ~version:Driver.Manager.V13 () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  step r;
  Alcotest.(check int) "flow programmed over OF1.3" 1 (List.length (switch_flows r))

let test_version_gates_commit () =
  (* Partial writes are invisible until the version bump (paper §3.4:
     "changes are only sent to hardware once the version has been
     incremented"). *)
  let r = rig () in
  let dir = Y.Layout.flow ~root:net_root ~switch:"sw1" "staged" in
  ok (Fs.mkdir r.fs ~cred dir);
  ok (Fs.write_file r.fs ~cred (Path.child dir "priority") "77");
  ok (Fs.write_file r.fs ~cred (Path.child dir "action.0.out") "flood");
  step r;
  Alcotest.(check int) "uncommitted flow invisible" 0 (List.length (switch_flows r));
  (* commit *)
  ok (Fs.write_file r.fs ~cred (Path.child dir "version") "1");
  step r;
  Alcotest.(check int) "committed flow programmed" 1 (List.length (switch_flows r));
  (* editing fields again without bumping: hardware unchanged *)
  ok (Fs.write_file r.fs ~cred (Path.child dir "priority") "88");
  step r;
  (match switch_flows r with
  | [ e ] -> Alcotest.(check int) "stale priority until bump" 77 e.N.Flow_table.priority
  | _ -> Alcotest.fail "flow lost");
  ok (Fs.write_file r.fs ~cred (Path.child dir "version") "2");
  step r;
  match switch_flows r with
  | [ e ] -> Alcotest.(check int) "new priority after bump" 88 e.N.Flow_table.priority
  | _ -> Alcotest.fail "flow lost"

let test_flow_delete () =
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  step r;
  Alcotest.(check int) "installed" 1 (List.length (switch_flows r));
  ok (Y.Yanc_fs.delete_flow r.yfs ~cred ~switch:"sw1" "flood");
  step r;
  Alcotest.(check int) "removed from hardware" 0 (List.length (switch_flows r))

let test_flow_parse_error_file () =
  let r = rig () in
  let dir = Y.Layout.flow ~root:net_root ~switch:"sw1" "bad" in
  ok (Fs.mkdir r.fs ~cred dir);
  ok (Fs.write_file r.fs ~cred (Path.child dir "match.nw_src") "garbage");
  ok (Fs.write_file r.fs ~cred (Path.child dir "version") "1");
  step r;
  Alcotest.(check int) "nothing programmed" 0 (List.length (switch_flows r));
  Alcotest.(check bool) "error file written" true
    (Fs.exists r.fs ~cred (Path.child dir "error"));
  (* fixing the flow clears the error *)
  ok (Fs.unlink r.fs ~cred (Path.child dir "match.nw_src"));
  ok (Fs.write_file r.fs ~cred (Path.child dir "version") "2");
  step r;
  Alcotest.(check bool) "error cleared" false
    (Fs.exists r.fs ~cred (Path.child dir "error"));
  Alcotest.(check int) "now programmed" 1 (List.length (switch_flows r))

let test_port_down_propagates () =
  (* echo 1 > config.port_down reaches the data plane (paper §3.1). *)
  let r = rig () in
  ok
    (Fs.write_file r.fs ~cred
       (p "/net/switches/sw1/ports/port_1/config.port_down") "1");
  step r;
  (match N.Sim_switch.port r.sw 1 with
  | Some info -> Alcotest.(check bool) "hardware admin down" true info.OF.Of_types.Port_info.admin_down
  | None -> Alcotest.fail "port missing");
  ok
    (Fs.write_file r.fs ~cred
       (p "/net/switches/sw1/ports/port_1/config.port_down") "0");
  step r;
  match N.Sim_switch.port r.sw 1 with
  | Some info -> Alcotest.(check bool) "re-enabled" false info.OF.Of_types.Port_info.admin_down
  | None -> Alcotest.fail "port missing"

let test_packet_in_published_to_buffers () =
  let r = rig () in
  ok (Y.Eventdir.subscribe r.fs ~cred ~root:net_root ~switch:"sw1" ~app:"app1");
  ok (Y.Eventdir.subscribe r.fs ~cred ~root:net_root ~switch:"sw1" ~app:"app2");
  (* a frame with no matching flow -> table miss -> packet-in *)
  let h1 = Option.get (N.Network.host r.net "h1") in
  N.Network.send_from_host r.net "h1"
    (N.Sim_host.ping h1 ~now:0. ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  N.Network.run r.net;
  step r;
  let consume app =
    ok
      (Y.Eventdir.consume r.fs ~cred ~root:net_root ~switch:"sw1" ~app
         ~on_error:(fun e -> Alcotest.failf "rmdir: %s" (Vfs.Errno.to_string e)))
  in
  let ev1 = consume "app1" and ev2 = consume "app2" in
  Alcotest.(check int) "app1 got the miss" 1 (List.length ev1);
  Alcotest.(check int) "app2 got it too" 1 (List.length ev2);
  let ev = List.hd ev1 in
  Alcotest.(check int) "ingress port" 1 ev.Y.Eventdir.in_port;
  match Y.Eventdir.frame_of ev with
  | Some { Packet.Eth.payload = Packet.Eth.Arp _; _ } -> ()
  | _ -> Alcotest.fail "expected the host's ARP probe"

let submit_packet_out r payload =
  let frame =
    Packet.Builder.udp
      ~src_mac:(Packet.Mac.of_int 0x02ffff)
      ~dst_mac:(N.Sim_host.mac (Option.get (N.Network.host r.net "h2")))
      ~src_ip:(N.Topo_gen.host_ip 9) ~dst_ip:(N.Topo_gen.host_ip 2)
      ~src_port:9999 ~dst_port:1234 payload
  in
  ok
    (Result.map ignore
       (Y.Outdir.submit r.yfs ~cred ~switch:"sw1"
          ~actions:[ OF.Action.Output (OF.Action.Physical 2) ]
          ~data:(Packet.Eth.to_wire frame) ()))

let drain r =
  step r;
  N.Network.run r.net;
  List.map snd (N.Sim_host.received_udp (Option.get (N.Network.host r.net "h2")))

let test_packet_out_spool () =
  let r = rig () in
  submit_packet_out r "hello-h2";
  Alcotest.(check (list string)) "delivered via packet-out" [ "hello-h2" ] (drain r)

(* A request whose rmdir fails stays in the spool and is not sent: the
   failure is counted, and a later drain sends it once its removal
   succeeds. *)
let test_packet_out_sent_once () =
  let r = rig () in
  let errors () =
    Telemetry.Registry.value
      (Telemetry.Registry.counter
         (Telemetry.registry (Y.Yanc_fs.telemetry r.yfs)) "driver.fs_errors")
  in
  let errors0 = errors () in
  submit_packet_out r "once";
  Fs.set_readonly r.fs true;
  ignore (drain r);
  Fs.set_readonly r.fs false;
  Alcotest.(check bool) "failed rmdir counted" true (errors () > errors0);
  (* a second request dirties the spool: the next drain sends both *)
  submit_packet_out r "next";
  Alcotest.(check (list string)) "each frame arrives once" [ "once"; "next" ] (drain r);
  Alcotest.(check (list string)) "spool drained" []
    (ok (Fs.readdir r.fs ~cred (Y.Layout.packet_out_dir ~root:net_root "sw1")))

(* A request the shell wrote with an action that does not parse is
   removed and counted once: it is neither sent nor read again. *)
let test_malformed_packet_out () =
  let r = rig () in
  let errors () =
    Telemetry.Registry.value
      (Telemetry.Registry.counter
         (Telemetry.registry (Y.Yanc_fs.telemetry r.yfs)) "driver.fs_errors")
  in
  let spool = Y.Layout.packet_out_dir ~root:net_root "sw1" in
  let errors0 = errors () in
  ok (Fs.mkdir r.fs ~cred (Vfs.Path.child spool "7"));
  ok (Fs.write_file r.fs ~cred (p "/net/switches/sw1/packet_out/7/action.0.out") "bogus");
  Alcotest.(check (list string)) "nothing sent" [] (drain r);
  Alcotest.(check (list string)) "removed" [] (ok (Fs.readdir r.fs ~cred spool));
  Alcotest.(check int) "counted once" 1 (errors () - errors0);
  submit_packet_out r "after";
  Alcotest.(check (list string)) "the next request goes out" [ "after" ] (drain r);
  Alcotest.(check int) "still counted once" 1 (errors () - errors0)

let test_counters_synced () =
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  step r;
  (* generate traffic through the flow *)
  let h1 = Option.get (N.Network.host r.net "h1") in
  N.Network.send_from_host r.net "h1"
    (N.Sim_host.ping h1 ~now:0. ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  N.Network.run r.net;
  (* advance past the stats interval (5s) *)
  step ~now:6. r;
  step ~now:6.1 r;
  let counters =
    Y.Layout.flow_counters ~root:net_root ~switch:"sw1" "flood"
  in
  let packets =
    int_of_string (String.trim (ok (Fs.read_file r.fs ~cred (Path.child counters "packets"))))
  in
  Alcotest.(check bool) "flow counters nonzero" true (packets > 0);
  (* port counters too *)
  let pc = Y.Layout.port_counters ~root:net_root ~switch:"sw1" 1 in
  let rx =
    int_of_string (String.trim (ok (Fs.read_file r.fs ~cred (Path.child pc "rx_packets"))))
  in
  Alcotest.(check bool) "port counters nonzero" true (rx > 0)

let test_idle_timeout_removes_flow_dir () =
  let r = rig () in
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"brief"
       { flood_flow with Y.Flowdir.idle_timeout = 2 });
  step r;
  Alcotest.(check int) "installed" 1 (List.length (switch_flows r));
  (* no traffic: the hardware expires it; the driver removes the dir *)
  N.Network.advance_idle r.net 10.;
  step ~now:10. r;
  Alcotest.(check int) "hardware empty" 0 (List.length (switch_flows r));
  Alcotest.(check bool) "flow dir removed" false
    (List.mem "brief" (Y.Yanc_fs.flow_names r.yfs ~cred "sw1"))

let test_buffer_id_release () =
  (* A flow committed with a buffer_id file releases the buffered
     packet through the new flow's actions. *)
  let r = rig ~miss_send_len:128 () in
  (* big frame so the switch buffers it *)
  let h2 = Option.get (N.Network.host r.net "h2") in
  let big =
    Packet.Builder.udp
      ~src_mac:(Packet.Mac.of_int 0x02aaaa)
      ~dst_mac:(N.Sim_host.mac h2)
      ~src_ip:(N.Topo_gen.host_ip 1) ~dst_ip:(N.Topo_gen.host_ip 2)
      ~src_port:1 ~dst_port:4321 (String.make 300 'z')
  in
  ok (Y.Eventdir.subscribe r.fs ~cred ~root:net_root ~switch:"sw1" ~app:"me");
  N.Network.send_from_host r.net "h1" [ big ];
  N.Network.run r.net;
  step r;
  let ev =
    match
      Y.Eventdir.consume r.fs ~cred ~root:net_root ~switch:"sw1" ~app:"me"
        ~on_error:(fun e -> Alcotest.failf "rmdir: %s" (Vfs.Errno.to_string e))
    with
    | Ok [ ev ] -> ev
    | Ok l -> Alcotest.failf "expected 1 event, got %d" (List.length l)
    | Error e -> Alcotest.failf "consume: %s" (Vfs.Errno.to_string e)
  in
  Alcotest.(check bool) "buffered" true (ev.Y.Eventdir.buffer_id <> None);
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"release"
       { Y.Flowdir.default with
         Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 2) ];
         buffer_id = ev.Y.Eventdir.buffer_id });
  step r;
  N.Network.run r.net;
  Alcotest.(check bool) "buffered frame delivered" true
    (List.mem (4321, String.make 300 'z') (N.Sim_host.received_udp h2));
  (* the one-shot buffer_id file is consumed *)
  Alcotest.(check bool) "buffer_id file removed" false
    (Fs.exists r.fs ~cred
       (Path.child (Y.Layout.flow ~root:net_root ~switch:"sw1" "release") "buffer_id"))

let test_enqueue_flow_end_to_end () =
  (* A flow committed with an enqueue action programs the hardware queue
     path over the wire; the rate limit then bites. *)
  let r = rig () in
  N.Sim_switch.add_queue r.sw ~port:2 ~queue_id:1 ~rate_mbps:1;
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"qos"
       { Y.Flowdir.default with
         Y.Flowdir.actions = [ OF.Action.Enqueue { port = 2; queue_id = 1 } ];
         priority = 50 });
  step r;
  (match switch_flows r with
  | [ e ] ->
    Alcotest.(check bool) "enqueue action programmed" true
      (e.N.Flow_table.actions = [ OF.Action.Enqueue { port = 2; queue_id = 1 } ])
  | _ -> Alcotest.fail "flow missing");
  (* saturate the queue from h1: many large frames, same instant *)
  let h2 = Option.get (N.Network.host r.net "h2") in
  for i = 1 to 5 do
    N.Network.send_from_host r.net "h1"
      [ Packet.Builder.udp
          ~src_mac:(N.Topo_gen.host_mac 1)
          ~dst_mac:(N.Sim_host.mac h2)
          ~src_ip:(N.Topo_gen.host_ip 1) ~dst_ip:(N.Topo_gen.host_ip 2)
          ~src_port:(3000 + i) ~dst_port:5001
          (String.make 60_000 'q') ]
  done;
  N.Network.run r.net;
  let received = List.length (N.Sim_host.received_udp h2) in
  Alcotest.(check bool) "rate limit dropped some" true (received < 5);
  Alcotest.(check bool) "but let some through" true (received >= 1);
  match N.Sim_switch.queue_stats r.sw ~port:2 with
  | [ q ] ->
    Alcotest.(check int64) "drops visible in queue stats"
      (Int64.of_int (5 - received))
      q.N.Sim_switch.dropped
  | _ -> Alcotest.fail "no queue stats"

let test_flow_rename_keeps_hardware () =
  (* §3.2 extends to flows: renaming a flow directory must leave exactly
     one hardware entry (delete-old before add-new, not the reverse). *)
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"old-name" flood_flow);
  step r;
  Alcotest.(check int) "installed" 1 (List.length (switch_flows r));
  ok
    (Fs.rename r.fs ~cred
       ~src:(Y.Layout.flow ~root:net_root ~switch:"sw1" "old-name")
       ~dst:(Y.Layout.flow ~root:net_root ~switch:"sw1" "new-name"));
  step r;
  Alcotest.(check (list string)) "fs sees the new name" [ "new-name" ]
    (Y.Yanc_fs.flow_names r.yfs ~cred "sw1");
  Alcotest.(check int) "hardware still has exactly one entry" 1
    (List.length (switch_flows r))

let test_live_upgrade_preserves_flows () =
  (* §4.1: "nodes can be gradually upgraded, live, to newer protocols".
     The FS holds the truth; after swapping the OF1.0 driver for OF1.3
     the same flows are reprogrammed. *)
  let r = rig () in
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  step r;
  Alcotest.(check (option string)) "starts on 1.0" (Some "openflow10")
    (Driver.Manager.driver_protocol r.mgr ~dpid:1L);
  Driver.Manager.upgrade r.mgr ~dpid:1L ~version:Driver.Manager.V13;
  Driver.Manager.run_control r.mgr ~now:2.;
  Driver.Manager.run_control r.mgr ~now:2.1;
  Alcotest.(check (option string)) "now on 1.3" (Some "openflow13")
    (Driver.Manager.driver_protocol r.mgr ~dpid:1L);
  Alcotest.(check (option string)) "protocol file updated" (Some "openflow13")
    (Y.Yanc_fs.switch_protocol r.yfs "sw1");
  (* flow still present in hardware (re-added over the new protocol) *)
  Alcotest.(check bool) "flow survives upgrade" true
    (List.exists
       (fun (e : N.Flow_table.entry) -> e.priority = 10)
       (switch_flows r));
  (* and traffic still flows *)
  let h1 = Option.get (N.Network.host r.net "h1") in
  N.Network.send_from_host r.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now r.net) ~dst:(N.Topo_gen.host_ip 2) ~seq:5);
  N.Network.run r.net;
  Alcotest.(check int) "ping works after upgrade" 1
    (List.length (N.Sim_host.ping_results h1))

let test_mixed_protocol_network () =
  (* Different switches on different protocol versions, same apps. *)
  let built = N.Topo_gen.linear 2 in
  let fs = Fs.create () in
  let yfs = Y.Yanc_fs.create fs in
  let mgr = Driver.Manager.create ~yfs ~net:built.net () in
  Driver.Manager.attach mgr ~dpid:1L ~version:Driver.Manager.V10;
  Driver.Manager.attach mgr ~dpid:2L ~version:Driver.Manager.V13;
  Driver.Manager.run_control mgr ~now:0.;
  Alcotest.(check (list string)) "both switches" [ "sw1"; "sw2" ]
    (Y.Yanc_fs.switch_names yfs);
  (* same flow written identically to both *)
  List.iter
    (fun sw ->
      ok (Y.Yanc_fs.create_flow yfs ~cred ~switch:sw ~name:"flood" flood_flow))
    [ "sw1"; "sw2" ];
  Driver.Manager.run_control mgr ~now:1.;
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:0. ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  N.Network.run built.net;
  Alcotest.(check int) "ping across mixed versions" 1
    (List.length (N.Sim_host.ping_results h1))

let test_detach_stops_translation () =
  let r = rig () in
  Driver.Manager.detach r.mgr ~dpid:1L;
  ok (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"flood" flood_flow);
  Driver.Manager.run_control r.mgr ~now:1.;
  Alcotest.(check int) "no driver, no programming" 0 (List.length (switch_flows r))

(* The O(runnable) scheduler: an idle fleet must not be re-stepped every
   manager round — drivers park until a wake (fs write, channel traffic)
   or a due timer (keepalive) pulls them back in. *)
let test_manager_parks_idle_drivers () =
  let r = rig () in
  let reg = Telemetry.registry (Y.Yanc_fs.telemetry r.yfs) in
  let stepped = Telemetry.Registry.counter reg "driver.mgr.stepped" in
  (* settle: run keepalive roundtrips and startup work to completion *)
  Driver.Manager.run_control r.mgr ~now:1.0;
  Driver.Manager.run_control r.mgr ~now:1.0;
  let s0 = Telemetry.Registry.value stepped in
  (* nothing due before the next keepalive, nothing woken: parked *)
  Driver.Manager.run_control r.mgr ~now:1.01;
  Driver.Manager.run_control r.mgr ~now:1.05;
  Alcotest.(check int) "idle rounds leave the driver parked" s0
    (Telemetry.Registry.value stepped);
  (* a file-system write wakes exactly this driver *)
  ok
    (Y.Yanc_fs.create_flow r.yfs ~cred ~switch:"sw1" ~name:"wake" flood_flow);
  Driver.Manager.run_control r.mgr ~now:1.06;
  let s1 = Telemetry.Registry.value stepped in
  Alcotest.(check bool) "a write wakes the parked driver" true (s1 > s0);
  Alcotest.(check bool) "and the rule reaches hardware" true
    (List.exists
       (fun e -> e.N.Flow_table.priority = flood_flow.Y.Flowdir.priority)
       (switch_flows r));
  (* drain the wake's own tail, then idle rounds must park it again *)
  Driver.Manager.run_control r.mgr ~now:1.07;
  Driver.Manager.run_control r.mgr ~now:1.08;
  let s2 = Telemetry.Registry.value stepped in
  Driver.Manager.run_control r.mgr ~now:1.09;
  Alcotest.(check int) "parked again once the work is done" s2
    (Telemetry.Registry.value stepped);
  (* timers still fire with no external wake: the keepalive comes due *)
  Driver.Manager.run_control r.mgr ~now:3.0;
  Alcotest.(check bool) "a due timer re-runs the driver" true
    (Telemetry.Registry.value stepped > s2)

let () =
  Alcotest.run "driver"
    [ ( "handshake",
        [ Alcotest.test_case "v10 builds switch dir" `Quick
            test_handshake_builds_switch_dir;
          Alcotest.test_case "v13 port-desc" `Quick test_handshake_v13 ] );
      ( "flows",
        [ Alcotest.test_case "commit reaches hardware" `Quick
            test_flow_commit_reaches_hardware;
          Alcotest.test_case "commit over v13" `Quick test_flow_commit_v13;
          Alcotest.test_case "version gates commit" `Quick test_version_gates_commit;
          Alcotest.test_case "delete" `Quick test_flow_delete;
          Alcotest.test_case "parse error file" `Quick test_flow_parse_error_file;
          Alcotest.test_case "idle timeout cleanup" `Quick
            test_idle_timeout_removes_flow_dir;
          Alcotest.test_case "buffer release" `Quick test_buffer_id_release;
          Alcotest.test_case "qos enqueue end-to-end" `Quick
            test_enqueue_flow_end_to_end;
          Alcotest.test_case "flow rename" `Quick test_flow_rename_keeps_hardware ] );
      ( "ports-events",
        [ Alcotest.test_case "port_down propagates" `Quick test_port_down_propagates;
          Alcotest.test_case "packet-in fan-out" `Quick
            test_packet_in_published_to_buffers;
          Alcotest.test_case "packet-out spool" `Quick test_packet_out_spool;
          Alcotest.test_case "packet-out sent once" `Quick
            test_packet_out_sent_once;
          Alcotest.test_case "malformed packet-out counted once" `Quick
            test_malformed_packet_out;
          Alcotest.test_case "counters" `Quick test_counters_synced ] );
      ( "lifecycle",
        [ Alcotest.test_case "live upgrade" `Quick test_live_upgrade_preserves_flows;
          Alcotest.test_case "mixed versions" `Quick test_mixed_protocol_network;
          Alcotest.test_case "detach" `Quick test_detach_stops_translation ] );
      ( "scheduling",
        [ Alcotest.test_case "parks idle drivers" `Quick
            test_manager_parks_idle_drivers ] ) ]
