(* Tests for the system applications: topology discovery, flow pusher,
   learning switch, router, ARP/DHCP daemons, auditor, accounting,
   migrator. Everything runs through the full controller assembly. *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module P = Packet
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

let net_root = Y.Layout.default_root

let controller built =
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  ctl

(* --- topology daemon (E5) -------------------------------------------------------- *)

let test_topology_linear () =
  let built = N.Topo_gen.linear 3 in
  let ctl = controller built in
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 3.0;
  let links = Apps.Topology.links topo in
  Alcotest.(check int) "2 links" 2 (List.length links);
  Alcotest.(check bool) "sw1-sw2" true
    (List.mem (("sw1", 1), ("sw2", 1)) links);
  Alcotest.(check bool) "sw2-sw3" true
    (List.mem (("sw2", 2), ("sw3", 1)) links);
  (* ground truth agrees with the simulator *)
  let yfs = Yanc.Controller.yfs ctl in
  List.iter
    (fun ((s1, p1), (s2, p2)) ->
      Alcotest.(check (option (pair string int)))
        (Printf.sprintf "symmetric %s/%d" s1 p1)
        (Some (s1, p1))
        (Y.Yanc_fs.peer_of yfs ~cred ~switch:s2 ~port:p2))
    links

let test_topology_fat_tree () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = controller built in
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 4.0;
  (* k=4 fat tree: 8 core-agg + 16 agg-edge = wait: per pod 2x2 agg-edge
     (4) and per agg 2 core uplinks (4) -> 16 + 16 hosts links excluded *)
  let links = Apps.Topology.links topo in
  Alcotest.(check int) "all 32 fabric links discovered" 32 (List.length links)

let test_topology_link_failure_expiry () =
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let topo = Apps.Topology.create ~probe_interval:0.5 ~ttl:1.0 (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.run_for ctl 2.0;
  Alcotest.(check int) "link up" 1 (List.length (Apps.Topology.links topo));
  N.Network.set_link_up built.net (N.Network.Sw (1L, 1)) false;
  Yanc.Controller.run_for ctl 3.0;
  Alcotest.(check int) "link aged out" 0 (List.length (Apps.Topology.links topo));
  N.Network.set_link_up built.net (N.Network.Sw (1L, 1)) true;
  Yanc.Controller.run_for ctl 3.0;
  Alcotest.(check int) "link rediscovered" 1 (List.length (Apps.Topology.links topo))

(* --- static flow pusher (E9) ------------------------------------------------------- *)

let test_pusher_parse () =
  let config =
    "# drop ssh at the edge\n\
     sw1 name=ssh-drop priority=40000 match.dl_type=0x0800 match.nw_proto=6 \
     match.tp_dst=22 action.0.out=drop\n\n\
     * name=flood priority=1 action.0.out=flood\n"
  in
  match Apps.Flow_pusher.parse config with
  | Error e -> Alcotest.fail e
  | Ok [ ssh; flood ] ->
    Alcotest.(check string) "switch" "sw1" ssh.Apps.Flow_pusher.switch;
    Alcotest.(check string) "name" "ssh-drop" ssh.Apps.Flow_pusher.name;
    Alcotest.(check int) "priority" 40000 ssh.Apps.Flow_pusher.flow.Y.Flowdir.priority;
    Alcotest.(check (option int)) "tp_dst" (Some 22)
      ssh.Apps.Flow_pusher.flow.Y.Flowdir.of_match.OF.Of_match.tp_dst;
    Alcotest.(check string) "wildcard switch" "*" flood.Apps.Flow_pusher.switch
  | Ok l -> Alcotest.failf "expected 2 specs, got %d" (List.length l)

let test_pusher_parse_errors () =
  Alcotest.(check bool) "missing name" true
    (Result.is_error (Apps.Flow_pusher.parse "sw1 priority=1"));
  Alcotest.(check bool) "bad key" true
    (Result.is_error (Apps.Flow_pusher.parse "sw1 name=x nonsense=1"));
  (* A flow's own files that are not a static spec's. *)
  List.iter
    (fun (key, value) ->
      Alcotest.(check (result reject string)) key
        (Error (Printf.sprintf "line 1: unknown key %S" key))
        (Result.map ignore
           (Apps.Flow_pusher.parse (Printf.sprintf "* name=x priority=1 %s=%s" key value))))
    [ "version", "3"; "buffer_id", "7"; "cookie", "0x1" ];
  Alcotest.(check bool) "bad value with line number" true
    (match Apps.Flow_pusher.parse "\nsw1 name=x priority=banana" with
    | Error e -> String.length e > 6 && String.sub e 0 6 = "line 2"
    | Ok _ -> false)

let test_pusher_end_to_end () =
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.2;
  (match
     Apps.Flow_pusher.push_config yfs ~cred "* name=flood priority=1 action.0.out=flood"
   with
  | Ok n -> Alcotest.(check int) "wrote to both switches" 2 n
  | Error e -> Alcotest.fail e);
  Yanc.Controller.run_for ctl 0.2;
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  Alcotest.(check bool) "ping via pushed flows" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> []))

(* --- learning switch ---------------------------------------------------------------- *)

let test_learning_switch () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  let learner = Apps.Learning_switch.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Learning_switch.app learner);
  Yanc.Controller.run_for ctl 0.5;
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  Alcotest.(check bool) "first ping (via flood + learn)" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> []));
  Alcotest.(check bool) "macs learned" true (Apps.Learning_switch.macs_learned learner >= 2);
  (* after learning, flows exist for both destinations *)
  let yfs = Yanc.Controller.yfs ctl in
  Alcotest.(check bool) "learned flows installed" true
    (List.length (Y.Yanc_fs.flow_names yfs ~cred "sw1") >= 2);
  (* second ping: hardware path *)
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 2) ~seq:2);
  Alcotest.(check bool) "second ping" true
    (Yanc.Controller.run_until ctl (fun () ->
         List.length (N.Sim_host.ping_results h1) >= 2))

(* --- reactive router (E9) ------------------------------------------------------------- *)

let router_rig topo =
  let ctl = controller topo in
  let topo_app = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  let router = Apps.Router.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo_app);
  Yanc.Controller.add_app ctl (Apps.Router.app router);
  Yanc.Controller.run_for ctl 3.0;
  ctl, router

let ping_ok ctl net ~from_host ~to_n =
  let h = Option.get (N.Network.host net from_host) in
  let before = List.length (N.Sim_host.ping_results h) in
  N.Network.send_from_host net from_host
    (N.Sim_host.ping h ~now:(N.Network.now net) ~dst:(N.Topo_gen.host_ip to_n)
       ~seq:(before + 1));
  Yanc.Controller.run_until ctl (fun () ->
      List.length (N.Sim_host.ping_results h) > before)

let test_router_linear () =
  let built = N.Topo_gen.linear 4 in
  let ctl, router = router_rig built in
  Alcotest.(check bool) "h1 -> h4 across 4 switches" true
    (ping_ok ctl built.net ~from_host:"h1" ~to_n:4);
  Alcotest.(check bool) "paths installed" true (Apps.Router.paths_installed router > 0);
  Alcotest.(check bool) "hosts tracked" true (Apps.Router.hosts_tracked router >= 2);
  (* hosts are published in /net/hosts *)
  let yfs = Yanc.Controller.yfs ctl in
  Alcotest.(check bool) "hosts dir populated" true
    (List.length (Y.Yanc_fs.host_names yfs ~cred) >= 2)

let test_router_ring () =
  (* a ring has loops: broadcast-to-edges must not storm *)
  let built = N.Topo_gen.ring 4 in
  let ctl, _ = router_rig built in
  Alcotest.(check bool) "h1 -> h3 across the ring" true
    (ping_ok ctl built.net ~from_host:"h1" ~to_n:3)

let test_router_hardware_after_setup () =
  let built = N.Topo_gen.linear 3 in
  let ctl, router = router_rig built in
  Alcotest.(check bool) "first ping" true (ping_ok ctl built.net ~from_host:"h1" ~to_n:3);
  let paths = Apps.Router.paths_installed router in
  Alcotest.(check bool) "second ping" true (ping_ok ctl built.net ~from_host:"h1" ~to_n:3);
  Alcotest.(check int) "no new path setup for the repeat" paths
    (Apps.Router.paths_installed router)

(* --- arp daemon ------------------------------------------------------------------------ *)

let test_arp_daemon_proxy () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.3;
  (* hosts table seeded (as the router or dhcp would) *)
  let arpd = Apps.Arp_daemon.create yfs in
  Yanc.Controller.add_app ctl (Apps.Arp_daemon.app arpd);
  ignore
    (Y.Yanc_fs.upsert_host yfs ~cred ~name:"h2" ~mac:(N.Topo_gen.host_mac 2)
       ~ip:(Some (N.Topo_gen.host_ip 2)) ());
  Yanc.Controller.run_for ctl 0.3;
  (* h1 ARPs for h2; the daemon proxy-answers from hosts/ *)
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    [ N.Sim_host.arp_probe h1 ~target:(N.Topo_gen.host_ip 2) ];
  Alcotest.(check bool) "cache fills via proxy" true
    (Yanc.Controller.run_until ctl (fun () ->
         List.mem_assoc (N.Topo_gen.host_ip 2) (N.Sim_host.arp_cache h1)));
  Alcotest.(check bool) "daemon answered" true (Apps.Arp_daemon.replies_sent arpd > 0);
  Alcotest.(check bool) "right mac learned" true
    (P.Mac.equal
       (List.assoc (N.Topo_gen.host_ip 2) (N.Sim_host.arp_cache h1))
       (N.Topo_gen.host_mac 2))

(* --- dhcp daemon ------------------------------------------------------------------------ *)

let test_dhcp_daemon () =
  let built = N.Topo_gen.linear ~hosts_per_switch:2 ~dhcp:true 1 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  let pool = [ Option.get (P.Ipv4_addr.of_string "10.9.0.1");
               Option.get (P.Ipv4_addr.of_string "10.9.0.2") ] in
  let dhcpd = Apps.Dhcp_daemon.create ~pool yfs in
  Yanc.Controller.add_app ctl (Apps.Dhcp_daemon.app dhcpd);
  Yanc.Controller.run_for ctl 0.3;
  let h1 = Option.get (N.Network.host built.net "h1") in
  let h2 = Option.get (N.Network.host built.net "h2") in
  Alcotest.(check (option string)) "h1 starts unconfigured" None
    (Option.map P.Ipv4_addr.to_string (N.Sim_host.ip h1));
  N.Network.send_from_host built.net "h1"
    [ N.Sim_host.dhcp_discover h1 ~now:0. ];
  Alcotest.(check bool) "h1 leased" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ip h1 <> None));
  N.Network.send_from_host built.net "h2"
    [ N.Sim_host.dhcp_discover h2 ~now:0. ];
  Alcotest.(check bool) "h2 leased" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ip h2 <> None));
  Alcotest.(check bool) "distinct addresses" true (N.Sim_host.ip h1 <> N.Sim_host.ip h2);
  Alcotest.(check int) "two leases recorded" 2 (List.length (Apps.Dhcp_daemon.leases dhcpd));
  (* leases published under hosts/ *)
  Alcotest.(check int) "hosts dir has both" 2
    (List.length (Y.Yanc_fs.host_names yfs ~cred))

(* --- auditor / accounting (cron apps) ------------------------------------------------------ *)

let test_auditor () =
  let built = N.Topo_gen.linear 1 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.3;
  (* a healthy switch: only info findings *)
  let findings = Apps.Auditor.audit yfs ~cred in
  Alcotest.(check bool) "no problems on healthy net" true
    (List.for_all (fun f -> f.Apps.Auditor.severity = `Info) findings);
  (* break something: uncommitted flow + bogus field *)
  let fs = Yanc.Controller.fs ctl in
  ignore (Fs.mkdir fs ~cred (Vfs.Path.of_string_exn "/net/switches/sw1/flows/limbo"));
  let bad = Y.Layout.flow ~root:net_root ~switch:"sw1" "bad" in
  ignore (Fs.mkdir fs ~cred bad);
  ignore (Fs.write_file fs ~cred (Vfs.Path.child bad "match.nw_src") "zzz");
  ignore (Fs.write_file fs ~cred (Vfs.Path.child bad "version") "1");
  let findings = Apps.Auditor.audit yfs ~cred in
  Alcotest.(check bool) "uncommitted flagged" true
    (List.exists
       (fun f ->
         f.Apps.Auditor.severity = `Warning
         && String.length f.message > 4
         && String.sub f.message 0 4 = "flow")
       findings);
  Alcotest.(check bool) "parse error flagged" true
    (List.exists (fun f -> f.Apps.Auditor.severity = `Error) findings);
  (* conflicting overlap: two same-priority flows, overlapping matches,
     different actions *)
  ignore
    (Apps.Flow_pusher.push_config yfs ~cred
       "sw1 name=ovl-a priority=700 match.tp_dst=80 action.0.out=1\n\
        sw1 name=ovl-b priority=700 match.nw_proto=6 action.0.out=drop");
  let findings = Apps.Auditor.audit yfs ~cred in
  Alcotest.(check bool) "overlap flagged" true
    (List.exists
       (fun f ->
         f.Apps.Auditor.severity = `Warning
         &&
         let msg = f.Apps.Auditor.message in
         let has needle =
           let nl = String.length needle and hl = String.length msg in
           let rec at i = i + nl <= hl && (String.sub msg i nl = needle || at (i + 1)) in
           nl = 0 || at 0
         in
         has "overlaps" && has "priority 700")
       findings);
  (* report written outside /net *)
  let out = Vfs.Path.of_string_exn "/var/log/audit.txt" in
  (match Apps.Auditor.run_to_file yfs ~cred ~out with
  | Ok problems -> Alcotest.(check bool) "problems counted" true (problems >= 2)
  | Error e -> Alcotest.failf "run_to_file: %s" (Vfs.Errno.to_string e));
  Alcotest.(check bool) "report exists" true (Fs.exists fs ~cred out)

(* fsck checks every child the schema gives a switch: packet_out/ too,
   which every app's Outdir.submit needs. *)
let test_auditor_packet_out () =
  let built = N.Topo_gen.linear 1 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.3;
  let fs = Yanc.Controller.fs ctl in
  (match Fs.rmdir fs ~cred (Y.Layout.packet_out_dir ~root:net_root "sw1") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rmdir packet_out: %s" (Vfs.Errno.to_string e));
  Alcotest.(check bool) "missing packet_out/ flagged" true
    (List.exists
       (fun f ->
         f.Apps.Auditor.severity = `Error
         && f.Apps.Auditor.message = "switch sw1: missing packet_out/")
       (Apps.Auditor.audit yfs ~cred))

let test_accounting () =
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  let dir = Vfs.Path.of_string_exn "/var/accounting" in
  Yanc.Controller.add_app ctl (Apps.Accounting.app yfs ~cred ~dir ~period:1.0);
  (* the "*" target resolves against switches present, so handshake first *)
  Yanc.Controller.run_for ctl 0.3;
  ignore
    (Apps.Flow_pusher.push_config yfs ~cred "* name=flood priority=1 action.0.out=flood");
  Yanc.Controller.run_for ctl 0.5;
  (* traffic *)
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net) ~dst:(N.Topo_gen.host_ip 2) ~seq:1);
  Yanc.Controller.run_for ctl 7.0;
  let fs = Yanc.Controller.fs ctl in
  let csv =
    match Fs.read_file fs ~cred (Vfs.Path.child dir "sw1.csv") with
    | Ok v -> v
    | Error e -> Alcotest.failf "no csv: %s" (Vfs.Errno.to_string e)
  in
  Alcotest.(check bool) "csv rows appended" true
    (List.length (String.split_on_char '\n' csv) > 2);
  let usages = Apps.Accounting.collect yfs ~cred in
  Alcotest.(check int) "both switches" 2 (List.length usages);
  Alcotest.(check bool) "bytes counted" true
    (List.exists (fun u -> u.Apps.Accounting.bytes > 0L) usages)

(* --- migrator (E10) -------------------------------------------------------------------------- *)

let test_migrator () =
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.3;
  ignore
    (Apps.Flow_pusher.push_config yfs ~cred
       "sw1 name=a priority=5 match.tp_dst=80 action.0.out=2\n\
        sw1 name=b priority=6 match.tp_dst=443 action.0.out=2");
  Yanc.Controller.run_for ctl 0.3;
  (match Apps.Migrator.move_flows yfs ~cred ~src:"sw1" ~dst:"sw2" () with
  | Ok n -> Alcotest.(check int) "moved 2" 2 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "source empty" [] (Y.Yanc_fs.flow_names yfs ~cred "sw1");
  Alcotest.(check (list string)) "destination has them" [ "a"; "b" ]
    (Y.Yanc_fs.flow_names yfs ~cred "sw2");
  Yanc.Controller.run_for ctl 0.3;
  (* hardware followed the move *)
  Alcotest.(check (list (triple string bool int))) "sw1 empty, sw2 has both"
    [ ("sw1", true, 0); ("sw2", true, 2) ]
    (List.map
       (fun (r : Yanc.Audit.report) -> (r.switch, Yanc.Audit.ok r, r.hw_rules))
       (Yanc.Controller.audit ctl))

let test_migrator_port_map () =
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  Yanc.Controller.run_for ctl 0.3;
  ignore
    (Apps.Flow_pusher.push_config yfs ~cred
       "sw1 name=f priority=5 match.in_port=1 action.0.out=2");
  (match
     Apps.Migrator.copy_flows yfs ~cred ~src:"sw1" ~dst:"sw2"
       ~port_map:(fun p -> p + 10) ()
   with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "copied %d" n
  | Error e -> Alcotest.fail e);
  match Y.Yanc_fs.read_flow yfs ~cred ~switch:"sw2" "f" with
  | Ok flow ->
    Alcotest.(check (option int)) "in_port remapped" (Some 11)
      flow.Y.Flowdir.of_match.OF.Of_match.in_port;
    Alcotest.(check bool) "output remapped" true
      (flow.Y.Flowdir.actions = [ OF.Action.Output (OF.Action.Physical 12) ])
  | Error e -> Alcotest.fail e

(* --- scheduler --------------------------------------------------------------------------------- *)

let test_switch_watcher () =
  (* §5.2 verbatim: "to monitor for new switches a watch can be placed
     on the switches directory" — the watcher sees drivers come and go
     without ever listing or polling. *)
  let built = N.Topo_gen.linear 2 in
  let ctl = controller built in
  let yfs = Yanc.Controller.yfs ctl in
  let provisioned = ref [] in
  let watcher =
    Apps.Switch_watcher.create
      ~on_change:(function
        | Apps.Switch_watcher.Added name -> provisioned := name :: !provisioned
        | Apps.Switch_watcher.Removed _ -> ())
      yfs
  in
  Yanc.Controller.add_app ctl (Apps.Switch_watcher.app watcher);
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list string)) "both arrivals seen" [ "sw1"; "sw2" ]
    (Apps.Switch_watcher.current watcher);
  Alcotest.(check int) "callback ran per switch" 2 (List.length !provisioned);
  (* removal: an admin rm -r's a switch *)
  ignore (Y.Yanc_fs.remove_switch yfs "sw2");
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check (list string)) "departure seen" [ "sw1" ]
    (Apps.Switch_watcher.current watcher);
  Alcotest.(check bool) "log records it" true
    (List.exists
       (fun (_, c) -> c = Apps.Switch_watcher.Removed "sw2")
       (Apps.Switch_watcher.log watcher));
  Apps.Switch_watcher.close watcher

let test_config_parse () =
  let text =
    "# demo\n\
     topology fat-tree:4\n\
     protocol openflow13\n\
     app topology\n\
     app router\n\
     duration 5.5\n\
     flow * name=f priority=1 action.0.out=flood\n"
  in
  match Yanc.Config.parse text with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check string) "topology" "fat-tree:4" c.Yanc.Config.topology;
    Alcotest.(check bool) "of13" true c.of13;
    Alcotest.(check (list string)) "apps in order" [ "topology"; "router" ] c.apps;
    Alcotest.(check (float 1e-9)) "duration" 5.5 c.duration;
    Alcotest.(check int) "flows" 1 (List.length c.flows);
    (* roundtrip *)
    (match Yanc.Config.parse (Yanc.Config.to_string c) with
    | Ok c2 -> Alcotest.(check bool) "roundtrip" true (c = c2)
    | Error e -> Alcotest.fail e)

let test_config_errors () =
  let bad s expected_line =
    match Yanc.Config.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names line for %S" s)
        true
        (String.length e > String.length expected_line
        && String.sub e 0 (String.length expected_line) = expected_line)
  in
  bad "nonsense here" "line 1";
  bad "topology ok\nprotocol openflow99" "line 2";
  bad "duration soon" "line 1";
  bad "\n\napp" "line 3"

let test_scheduler_kinds () =
  let sched = Yanc.Scheduler.create () in
  let daemon_runs = ref 0
  and cron_runs = ref 0
  and oneshot_runs = ref 0 in
  Yanc.Scheduler.add sched
    (Apps.App_intf.daemon ~name:"d" (fun ~now:_ -> incr daemon_runs));
  Yanc.Scheduler.add sched
    (Apps.App_intf.cron ~name:"c" ~period:10. (fun ~now:_ -> incr cron_runs));
  Yanc.Scheduler.add sched
    (Apps.App_intf.oneshot ~name:"o" (fun ~now:_ -> incr oneshot_runs));
  ignore (Yanc.Scheduler.tick sched ~now:0.);
  ignore (Yanc.Scheduler.tick sched ~now:1.);
  ignore (Yanc.Scheduler.tick sched ~now:11.);
  Alcotest.(check int) "daemon every tick" 3 !daemon_runs;
  Alcotest.(check int) "cron twice (0 and 11)" 2 !cron_runs;
  Alcotest.(check int) "oneshot once" 1 !oneshot_runs;
  Alcotest.(check (list string)) "names" [ "d"; "c"; "o" ] (Yanc.Scheduler.apps sched)

(* --- ECMP router ---------------------------------------------------------------- *)

(* Provision the inventory the way the scale bench does: peer symlinks
   for fabric links, /net/hosts records with attachment points. *)
let ecmp_provision ctl built =
  let yfs = Yanc.Controller.yfs ctl in
  let sw = Y.Yanc_fs.switch_name_of_dpid in
  List.iter
    (fun (a, b) ->
      match (a, b) with
      | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) ->
        ignore
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d1) ~port:p1
             ~peer:(Some (sw d2, p2)));
        ignore
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d2) ~port:p2
             ~peer:(Some (sw d1, p1)))
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) ->
        let i = int_of_string (String.sub h 1 (String.length h - 1)) in
        ignore
          (Y.Yanc_fs.upsert_host yfs ~cred ~name:h
             ~mac:(N.Topo_gen.host_mac i) ~ip:(Some (N.Topo_gen.host_ip i))
             ~attached_to:(sw d, p) ())
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints built.N.Topo_gen.net)

(* Two leaves, [spines] equal-cost paths between them, two hosts per
   leaf — the minimal ECMP fabric. *)
let ecmp_rig ?cred ?(spines = 2) () =
  let built = N.Topo_gen.clos ~spines ~leaves:2 ~hosts_per_leaf:2 () in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.5;
  ecmp_provision ctl built;
  let d = Apps.Ecmp_router.create ?cred (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Ecmp_router.app d);
  (built, ctl, d)

let ecmp_syn ~src ~dst ~sport ?(dport = 80) () =
  P.Builder.tcp_syn ~src_mac:(N.Topo_gen.host_mac src)
    ~dst_mac:(N.Topo_gen.host_mac dst) ~src_ip:(N.Topo_gen.host_ip src)
    ~dst_ip:(N.Topo_gen.host_ip dst) ~src_port:sport ~dst_port:dport

let ecmp_flows ctl switch =
  List.filter
    (fun n -> String.length n >= 5 && String.sub n 0 5 = "ecmp-")
    (Y.Yanc_fs.flow_names (Yanc.Controller.yfs ctl) ~cred switch)

(* Read from a snapshot, so a missing series fails instead of reading 0. *)
let registry_counter ctl name =
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  match Telemetry.Registry.find (Telemetry.Registry.snapshot reg) name with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "no registry series %s" name

let check_fs_errors_crit ctl =
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  let verdicts = Telemetry.Health.evaluate (Telemetry.Registry.snapshot reg) in
  Alcotest.(check bool) "health is Crit" true
    (Telemetry.Health.worst verdicts = Telemetry.Health.Crit);
  Alcotest.(check bool) "the app_fs_errors probe fired" true
    (List.exists
       (fun (v : Telemetry.Health.verdict) ->
         v.probe.name = "app_fs_errors" && v.level = Telemetry.Health.Crit)
       verdicts)

(* dpids in a clos: spines first, then leaves. *)
let test_ecmp_installs_path () =
  let built, ctl, d = ecmp_rig () in
  let net = built.N.Topo_gen.net in
  N.Network.send_from_host net "h1" [ ecmp_syn ~src:1 ~dst:3 ~sport:10001 () ];
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "one path installed" 1
    (Apps.Ecmp_router.paths_installed d);
  Alcotest.(check int) "rule on the source leaf" 1
    (List.length (ecmp_flows ctl "sw3"));
  Alcotest.(check int) "rule on the destination leaf" 1
    (List.length (ecmp_flows ctl "sw4"));
  Alcotest.(check int) "exactly one spine carries the flow" 1
    (List.length (ecmp_flows ctl "sw1") + List.length (ecmp_flows ctl "sw2"));
  Alcotest.(check bool) "both endpoints tracked" true
    (Apps.Ecmp_router.hosts_tracked d >= 4);
  Alcotest.(check int) "no failed writes" 0 (registry_counter ctl "app.fs_errors");
  (* the same 12-tuple now forwards in hardware: no new packet-in for
     the forward direction (the delivered SYN may provoke the reverse
     path, nothing more) *)
  let before = Apps.Ecmp_router.paths_installed d in
  N.Network.send_from_host net "h1" [ ecmp_syn ~src:1 ~dst:3 ~sport:10001 () ];
  Yanc.Controller.run_for ctl 0.5;
  let after = Apps.Ecmp_router.paths_installed d in
  Alcotest.(check bool) "no duplicate forward path" true
    (after - before <= 1);
  N.Network.send_from_host net "h1" [ ecmp_syn ~src:1 ~dst:3 ~sport:10001 () ];
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "stable once both directions exist" after
    (Apps.Ecmp_router.paths_installed d)

let test_ecmp_spreads_across_spines () =
  let built, ctl, d = ecmp_rig ~spines:4 () in
  let net = built.N.Topo_gen.net in
  (* 32 distinct flows between the same host pair: the 12-tuple hash
     must spread them over the equal-cost spines *)
  N.Network.send_from_host net "h1"
    (List.init 32 (fun i -> ecmp_syn ~src:1 ~dst:3 ~sport:(20000 + i) ()));
  Yanc.Controller.run_for ctl 1.0;
  Alcotest.(check bool) "all flows routed" true
    (Apps.Ecmp_router.paths_installed d >= 32);
  (* with 4 spines the leaves are sw5/sw6; sw1..sw4 are the spines *)
  let spine_hit =
    List.filter
      (fun s -> ecmp_flows ctl s <> [])
      [ "sw1"; "sw2"; "sw3"; "sw4" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "flows spread over >= 2 spines (hit %d)"
       (List.length spine_hit))
    true
    (List.length spine_hit >= 2)

let test_ecmp_unknown_dst_drops () =
  let built, ctl, d = ecmp_rig () in
  let net = built.N.Topo_gen.net in
  let ghost =
    P.Builder.tcp_syn ~src_mac:(N.Topo_gen.host_mac 1)
      ~dst_mac:(N.Topo_gen.host_mac 99) ~src_ip:(N.Topo_gen.host_ip 1)
      ~dst_ip:(N.Topo_gen.host_ip 99) ~src_port:1234 ~dst_port:80
  in
  N.Network.send_from_host net "h1" [ ghost ];
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check int) "nothing installed" 0 (Apps.Ecmp_router.paths_installed d);
  Alcotest.(check bool) "unknown destination counted" true
    (registry_counter ctl "app.ecmpd.unknown_dst" >= 1)

(* Spine sw1's fabric ports with their peers: (port, (peer, peer port)). *)
let fabric_ports ctl switch =
  let yfs = Yanc.Controller.yfs ctl in
  List.filter_map
    (fun port ->
      Option.map (fun peer -> port, peer) (Y.Yanc_fs.peer_of yfs ~cred ~switch ~port))
    (Y.Yanc_fs.port_numbers yfs ~cred switch)

let must what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Vfs.Errno.to_string e)

(* One path in, then spine sw1 dies (by [kill]) and 32 new h1 -> h3
   flows arrive: none may go through sw1, none may go unrouted. *)
let ecmp_after_spine_loss kill =
  let built, ctl, d = ecmp_rig ~spines:2 () in
  let net = built.N.Topo_gen.net in
  N.Network.send_from_host net "h1" [ ecmp_syn ~src:1 ~dst:3 ~sport:10001 () ];
  Yanc.Controller.run_for ctl 0.5;
  let on_sw1 = List.length (ecmp_flows ctl "sw1") in
  let paths = Apps.Ecmp_router.paths_installed d in
  let ports = fabric_ports ctl "sw1" in
  Alcotest.(check int) "sw1 has two fabric links" 2 (List.length ports);
  List.iter (kill ctl net) ports;
  Yanc.Controller.run_for ctl 0.2;
  N.Network.send_from_host net "h1"
    (List.init 32 (fun i -> ecmp_syn ~src:1 ~dst:3 ~sport:(20000 + i) ()));
  Yanc.Controller.run_for ctl 1.0;
  Alcotest.(check int) "no new flow through the dead spine" on_sw1
    (List.length (ecmp_flows ctl "sw1"));
  Alcotest.(check bool) "all 32 routed" true
    (Apps.Ecmp_router.paths_installed d - paths >= 32);
  Alcotest.(check int) "no route failures" 0 (registry_counter ctl "app.ecmpd.no_route")

(* The links go down in the network and the topology daemon's peer
   symlinks go with them, both ends. *)
let test_ecmp_unlinked_spine () =
  ecmp_after_spine_loss (fun ctl net (port, (psw, pport)) ->
      let yfs = Yanc.Controller.yfs ctl in
      N.Network.set_link_up net (N.Network.Sw (1L, port)) false;
      must "unlink" (Y.Yanc_fs.set_peer yfs ~cred ~switch:"sw1" ~port ~peer:None);
      must "unlink back"
        (Y.Yanc_fs.set_peer yfs ~cred ~switch:psw ~port:pport ~peer:None))

(* An administrator shuts sw1's fabric ports; the peers stay. *)
let test_ecmp_port_down_spine () =
  ecmp_after_spine_loss (fun ctl _ (port, _) ->
      must "port down"
        (Fs.write_file (Yanc.Controller.fs ctl) ~cred
           (Y.Layout.port_attr ~root:net_root ~switch:"sw1" ~port
              Y.Schema.config_port_down)
           "1"))

(* A daemon whose credential cannot write the switches' flows/
   directories: every write of the path it routes fails, each failure
   is counted in app.fs_errors, and the health probes judge it Crit. *)
let test_ecmp_failed_writes_counted () =
  let user = Vfs.Cred.make ~uid:1000 ~gid:1000 () in
  let built, ctl, d = ecmp_rig ~cred:user () in
  let net = built.N.Topo_gen.net in
  (* h1 unprovisioned, so ecmpd learns it and publishes its record *)
  (match
     Fs.rmdir ~recursive:true (Yanc.Controller.fs ctl) ~cred
       (Y.Layout.host ~root:net_root "h1")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rmdir h1: %s" (Vfs.Errno.to_string e));
  N.Network.send_from_host net "h1" [ ecmp_syn ~src:1 ~dst:3 ~sport:10001 () ];
  Yanc.Controller.run_for ctl 0.5;
  Alcotest.(check bool) "a path was routed" true
    (Apps.Ecmp_router.paths_installed d >= 1);
  Alcotest.(check (list string)) "nothing written on the source leaf" []
    (ecmp_flows ctl "sw3");
  (* the learned source host's record, leaf, spine and leaf flows, plus
     the unbuffered ingress's packet-out *)
  Alcotest.(check int) "every failed write counted" 5
    (registry_counter ctl "app.fs_errors");
  check_fs_errors_crit ctl

(* On a read-only tree routerd's packet-in subscribe fails: each attempt
   is counted and judged Crit, and the next drain retries it. *)
let test_router_subscribe_failure_counted () =
  let ctl = controller (N.Topo_gen.linear 1) in
  Yanc.Controller.run_for ctl 0.5;
  let fs = Yanc.Controller.fs ctl in
  let app = Apps.Router.app (Apps.Router.create (Yanc.Controller.yfs ctl)) in
  Fs.set_readonly fs true;
  app.run ~now:1.0;
  app.run ~now:2.0;
  Alcotest.(check int) "each failed subscribe counted" 2
    (registry_counter ctl "app.fs_errors");
  check_fs_errors_crit ctl;
  Fs.set_readonly fs false;
  app.run ~now:3.0;
  Alcotest.(check (list string)) "retried once writable" [ Apps.Router.app_name ]
    (Y.Eventdir.subscribers fs ~root:net_root ~switch:"sw1");
  Alcotest.(check int) "no further failures" 2 (registry_counter ctl "app.fs_errors")

(* An LLDP packet-in that would link two ports arrives while the tree is
   read-only: the failed peer symlink write is counted. *)
let test_topology_set_peer_failure_counted () =
  let ctl = controller (N.Topo_gen.linear 2) in
  Yanc.Controller.run_for ctl 0.5;
  let fs = Yanc.Controller.fs ctl in
  let app = Apps.Topology.app (Apps.Topology.create (Yanc.Controller.yfs ctl)) in
  app.run ~now:1.0;
  let lldp = P.Builder.lldp ~src_mac:(P.Mac.of_int 1) ~dpid:1L ~port:1 in
  let data = P.Eth.to_wire lldp in
  ignore
    (Y.Eventdir.publish (Yanc.Controller.yfs ctl) ~cred:Vfs.Cred.root ~switch:"sw2" ~in_port:1
       ~reason:OF.Of_types.No_match ~buffer_id:None
       ~total_len:(String.length data) ~data);
  (* The event is consumed (its removal succeeds); the peer symlink is
     refused. *)
  Fs.set_symlink_policy fs (fun _ ~target:_ -> false);
  app.run ~now:1.5;
  Alcotest.(check int) "failed peer write counted" 1
    (registry_counter ctl "app.fs_errors");
  Alcotest.(check (option (pair string int))) "no link recorded" None
    (Y.Yanc_fs.peer_of (Yanc.Controller.yfs ctl) ~cred ~switch:"sw2" ~port:1)

(* Walking any next hop from every switch of a k=4 fat tree reaches
   every other switch in exactly the BFS hop count. *)
let test_next_hops_fat_tree () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.5;
  ecmp_provision ctl built;
  let yfs = Yanc.Controller.yfs ctl in
  let view = Apps.Topo_view.create yfs in
  let switches = Apps.Topo_view.switches view in
  Alcotest.(check int) "20 switches" 20 (List.length switches);
  let hop_counts src =
    let dist = Hashtbl.create 32 in
    Hashtbl.replace dist src 0;
    let q = Queue.create () in
    Queue.push src q;
    while not (Queue.is_empty q) do
      let sw = Queue.pop q in
      List.iter
        (fun (h : Apps.Topo_view.hop) ->
          if not (Hashtbl.mem dist h.peer) then begin
            Hashtbl.replace dist h.peer (Hashtbl.find dist sw + 1);
            Queue.push h.peer q
          end)
        (Apps.Topo_view.links view sw)
    done;
    dist
  in
  let hops_from = List.map (fun src -> src, hop_counts src) switches in
  List.iter
    (fun dst ->
      let table = Apps.Topo_view.toward view ~dst_sw:dst in
      List.iter
        (fun (src, dist) ->
          if src <> dst then
            (* pick 0 takes the lowest port everywhere, pick 1 the next *)
            List.iter
              (fun pick ->
                let rec walk sw n =
                  if sw = dst || n > List.length switches then n
                  else
                    match Hashtbl.find_opt table sw with
                    | None | Some [||] -> -1
                    | Some hops ->
                      walk hops.(pick mod Array.length hops).peer (n + 1)
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s -> %s, pick %d" src dst pick)
                  (Hashtbl.find dist dst) (walk src 0))
              [ 0; 1 ])
        hops_from)
    switches

(* --- the topology view ----------------------------------------------------------- *)

(* Everything a view answers, as one comparable value. *)
let view_state v =
  let module V = Apps.Topo_view in
  let switches = V.switches v in
  let per_switch sw =
    ( sw,
      List.map
        (fun port -> port, V.peer v ~switch:sw ~port, V.port_up v ~switch:sw ~port)
        (V.ports v sw),
      V.links v sw,
      V.edge_ports v sw )
  in
  let toward dst =
    Hashtbl.fold (fun sw hops acc -> (sw, Array.to_list hops) :: acc)
      (V.toward v ~dst_sw:dst) []
    |> List.sort compare
  in
  ( List.map per_switch switches,
    List.map (fun dst -> dst, toward dst) switches,
    List.map (fun (mac, loc) -> P.Mac.to_int mac, loc) (V.hosts v) )

(* Seeded link flaps, port shutdowns and host arrivals, moves and
   departures on a k=4 fat tree: after every event the long-lived view answers exactly
   what a view built from scratch does. *)
let test_view_matches_fresh () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.5;
  ecmp_provision ctl built;
  let yfs = Yanc.Controller.yfs ctl and fs = Yanc.Controller.fs ctl in
  let view = Apps.Topo_view.create yfs in
  let sw = Y.Yanc_fs.switch_name_of_dpid in
  let fabric =
    List.filter_map
      (function
        | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) -> Some ((sw d1, p1), (sw d2, p2))
        | _ -> None)
      (N.Network.link_endpoints built.N.Topo_gen.net)
    |> Array.of_list
  in
  let switches = Array.of_list (Y.Yanc_fs.switch_names yfs) in
  let rng = Random.State.make [| 0x70b0 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let any_port () =
    let s = pick switches in
    s, pick (Array.of_list (Y.Yanc_fs.port_numbers yfs ~cred s))
  in
  let host_seq = ref 0 in
  let place name mac =
    let s, p = any_port () in
    must "host"
      (Y.Yanc_fs.upsert_host yfs ~cred ~name ~mac ~ip:None ~attached_to:(s, p) ())
  in
  let live () =
    Array.fold_left (fun n s -> n + List.length (Apps.Topo_view.links view s)) 0 switches
  in
  let all_live = live () and fewest = ref max_int in
  let events = ref 0 in
  for i = 1 to 240 do
    (match Random.State.int rng 7 with
    | 0 ->
      let (s, p), _ = pick fabric in
      must "unlink" (Y.Yanc_fs.set_peer yfs ~cred ~switch:s ~port:p ~peer:None)
    | 1 ->
      let (s, p), b =
        let a, b = pick fabric in
        if Random.State.bool rng then a, b else b, a
      in
      must "relink" (Y.Yanc_fs.set_peer yfs ~cred ~switch:s ~port:p ~peer:(Some b))
    | 2 ->
      let s, p = any_port () in
      must "port flip"
        (Fs.write_file fs ~cred
           (Y.Layout.port_attr ~root:net_root ~switch:s ~port:p
              Y.Schema.config_port_down)
           (if Random.State.bool rng then "1" else "0"))
    | 3 ->
      incr host_seq;
      place (Printf.sprintf "x%d" !host_seq) (P.Mac.of_int (0x0a0000 + !host_seq))
    | 4 ->
      (* a move: a provisioned host, or one added above *)
      let n = 1 + Random.State.int rng 16 in
      place (Printf.sprintf "h%d" n) (N.Topo_gen.host_mac n)
    | 5 ->
      (* the same MAC under a second record *)
      let n = 1 + Random.State.int rng 16 in
      place (Printf.sprintf "y%d" n) (N.Topo_gen.host_mac n)
    | _ -> (
      (* a record goes *)
      let name = pick [| "h"; "y" |] ^ string_of_int (1 + Random.State.int rng 16) in
      match
        Fs.rmdir ~recursive:true fs ~cred (Y.Layout.host ~root:net_root name)
      with
      | Ok () | Error Vfs.Errno.ENOENT -> ()
      | Error e -> Alcotest.failf "rmdir %s: %s" name (Vfs.Errno.to_string e)));
    incr events;
    let fresh = Apps.Topo_view.create yfs in
    let expected = view_state fresh in
    Apps.Topo_view.close fresh;
    if view_state view <> expected then
      Alcotest.failf "view differs from a fresh build after event %d" i;
    fewest := min !fewest (live ())
  done;
  Alcotest.(check bool) "at least 200 events" true (!events >= 200);
  Alcotest.(check bool) "links were lost along the way" true (!fewest < all_live)

(* A quiet topology costs no crossing. *)
let test_view_quiet_is_free () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.5;
  ecmp_provision ctl built;
  let yfs = Yanc.Controller.yfs ctl in
  let view = Apps.Topo_view.create yfs in
  ignore (view_state view);
  let crossings () =
    Telemetry.Registry.value
      (Telemetry.Registry.counter (Fs.registry (Yanc.Controller.fs ctl)) "vfs.crossings")
  in
  let c0 = crossings () in
  ignore (view_state view);
  Alcotest.(check int) "no crossing" 0 (crossings () - c0);
  (* A flow commit is not a topology event. *)
  must "flow"
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:"sw1" ~name:"f" Y.Flowdir.default);
  let c1 = crossings () in
  ignore (view_state view);
  Alcotest.(check int) "still no crossing" 0 (crossings () - c1)

(* --- the network fsck, served as a file --------------------------------------- *)

(* One code path: on a converged k=4 ECMP storm, `cat /yanc/.proc/fsck`
   prints exactly the render of the library call. (The cluster file is
   checked the same way in test_cluster.) *)
let test_fsck_file_is_the_library_call () =
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = controller built in
  Yanc.Controller.run_for ctl 0.5;
  ecmp_provision ctl built;
  let d = Apps.Ecmp_router.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Ecmp_router.app d);
  for src = 1 to 16 do
    N.Network.send_from_host built.net (Printf.sprintf "h%d" src)
      [ ecmp_syn ~src ~dst:((src + 7) mod 16 + 1) ~sport:(40000 + src) () ]
  done;
  Yanc.Controller.run_for ctl 1.0;
  Alcotest.(check bool) "storm routed" true (Apps.Ecmp_router.paths_installed d >= 16);
  let sh = Shell.Env.create (Yanc.Controller.fs ctl) in
  let file = (Shell.Pipeline.run sh "cat /yanc/.proc/fsck").Shell.Pipeline.out in
  Alcotest.(check string) "cat = render (audit)"
    (Yanc.Audit.render (Yanc.Controller.audit ctl)) file;
  Alcotest.(check bool) "converged" true (String.starts_with ~prefix:"status ok\n" file)

let () =
  Alcotest.run "apps"
    [ ( "topology",
        [ Alcotest.test_case "linear" `Quick test_topology_linear;
          Alcotest.test_case "fat tree" `Quick test_topology_fat_tree;
          Alcotest.test_case "failure expiry" `Quick test_topology_link_failure_expiry;
          Alcotest.test_case "failed peer write counted" `Quick
            test_topology_set_peer_failure_counted ] );
      ( "flow-pusher",
        [ Alcotest.test_case "parse" `Quick test_pusher_parse;
          Alcotest.test_case "parse errors" `Quick test_pusher_parse_errors;
          Alcotest.test_case "end to end" `Quick test_pusher_end_to_end ] );
      ( "learning-switch",
        [ Alcotest.test_case "learn and forward" `Quick test_learning_switch ] );
      ( "router",
        [ Alcotest.test_case "linear path" `Quick test_router_linear;
          Alcotest.test_case "ring" `Quick test_router_ring;
          Alcotest.test_case "hardware repeat" `Quick test_router_hardware_after_setup;
          Alcotest.test_case "failed subscribe counted" `Quick
            test_router_subscribe_failure_counted;
          Alcotest.test_case "next hops on a k=4 fat tree" `Quick
            test_next_hops_fat_tree ] );
      ( "ecmp",
        [ Alcotest.test_case "installs a multi-hop path" `Quick
            test_ecmp_installs_path;
          Alcotest.test_case "spreads across spines" `Quick
            test_ecmp_spreads_across_spines;
          Alcotest.test_case "unknown dst drops" `Quick
            test_ecmp_unknown_dst_drops;
          Alcotest.test_case "failed writes counted" `Quick
            test_ecmp_failed_writes_counted;
          Alcotest.test_case "dead spine unlinked" `Quick test_ecmp_unlinked_spine;
          Alcotest.test_case "dead spine ports down" `Quick
            test_ecmp_port_down_spine ] );
      ( "topology view",
        [ Alcotest.test_case "long-lived = fresh" `Quick test_view_matches_fresh;
          Alcotest.test_case "quiet costs nothing" `Quick test_view_quiet_is_free ] );
      ( "fsck",
        [ Alcotest.test_case "proc file = library call" `Quick
            test_fsck_file_is_the_library_call ] );
      ( "daemons",
        [ Alcotest.test_case "arp proxy" `Quick test_arp_daemon_proxy;
          Alcotest.test_case "dhcp" `Quick test_dhcp_daemon ] );
      ( "cron-apps",
        [ Alcotest.test_case "auditor" `Quick test_auditor;
          Alcotest.test_case "auditor: missing packet_out/" `Quick test_auditor_packet_out;
          Alcotest.test_case "accounting" `Quick test_accounting ] );
      ( "switch-watcher",
        [ Alcotest.test_case "event-driven inventory" `Quick test_switch_watcher ] );
      ( "migrator",
        [ Alcotest.test_case "move flows" `Quick test_migrator;
          Alcotest.test_case "port map" `Quick test_migrator_port_map ] );
      "scheduler", [ Alcotest.test_case "kinds" `Quick test_scheduler_kinds ];
      ( "config",
        [ Alcotest.test_case "parse + roundtrip" `Quick test_config_parse;
          Alcotest.test_case "errors" `Quick test_config_errors ] ) ]
