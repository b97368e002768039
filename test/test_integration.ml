(* End-to-end integration tests (E9 and friends): the full prototype of
   paper §8 — OF drivers, static flow pusher (as an actual shell
   script), topology daemon, reactive router — plus administration with
   coreutils against the live controller and the middlebox-migration
   story (§7.2). *)

module Y = Yancfs
module N = Netsim
module OF = Openflow
module P = Packet
module Fs = Vfs.Fs

let cred = Vfs.Cred.root

let full_stack built =
  let ctl = Yanc.Controller.create ~net:built.N.Topo_gen.net () in
  Yanc.Controller.attach_switches ctl;
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  let router = Apps.Router.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.add_app ctl (Apps.Router.app router);
  Yanc.Controller.run_for ctl 3.0;
  ctl, topo, router

let ping ctl net ~src ~dst_n =
  let h = Option.get (N.Network.host net src) in
  let before = List.length (N.Sim_host.ping_results h) in
  N.Network.send_from_host net src
    (N.Sim_host.ping h ~now:(N.Network.now net) ~dst:(N.Topo_gen.host_ip dst_n)
       ~seq:(before + 1));
  Yanc.Controller.run_until ctl (fun () ->
      List.length (N.Sim_host.ping_results h) > before)

let test_fat_tree_all_pairs () =
  (* The §8 prototype story at datacenter shape: every host can reach
     every other across a k=4 fat tree through the reactive router. *)
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl, topo, router = full_stack built in
  Alcotest.(check int) "full fabric discovered" 32
    (List.length (Apps.Topology.links topo));
  (* a representative sample of host pairs (all 240 would be slow) *)
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> h%d" src dst)
        true
        (ping ctl built.net ~src ~dst_n:dst))
    [ "h1", 2 (* same edge switch *);
      "h1", 3 (* same pod, different edge *);
      "h1", 16 (* across the core *);
      "h16", 1 (* and back *);
      "h5", 12 ];
  Alcotest.(check bool) "paths were installed" true
    (Apps.Router.paths_installed router > 0)

let test_tcp_through_fabric () =
  let built = N.Topo_gen.linear 3 in
  let ctl, _, _ = full_stack built in
  let h1 = Option.get (N.Network.host built.net "h1") in
  let h3 = Option.get (N.Network.host built.net "h3") in
  N.Sim_host.listen h3 80;
  (* resolve the mac first with a ping, then connect *)
  Alcotest.(check bool) "warm up" true (ping ctl built.net ~src:"h1" ~dst_n:3);
  let dst_mac = List.assoc (N.Topo_gen.host_ip 3) (N.Sim_host.arp_cache h1) in
  N.Network.send_from_host built.net "h1"
    [ N.Sim_host.tcp_connect h1 ~dst_ip:(N.Topo_gen.host_ip 3) ~dst_mac
        ~src_port:45000 ~dst_port:80 ];
  Alcotest.(check bool) "handshake completes across fabric" true
    (Yanc.Controller.run_until ctl (fun () ->
         List.mem (45000, 80) (N.Sim_host.tcp_established h1)))

let test_link_failure_reroute () =
  (* Ring: kill one link; flows time out; the router finds the long way
     around using the refreshed topology. *)
  let built = N.Topo_gen.ring 4 in
  let ctl, topo, _ = full_stack built in
  Alcotest.(check int) "ring discovered" 4 (List.length (Apps.Topology.links topo));
  Alcotest.(check bool) "ping before failure" true (ping ctl built.net ~src:"h1" ~dst_n:2);
  (* cut the direct sw1-sw2 link *)
  N.Network.set_link_up built.net (N.Network.Sw (1L, 1)) false;
  (* wait out LLDP ttl (3s) and the router's idle timeouts (30s) *)
  Yanc.Controller.run_for ctl 35.;
  Alcotest.(check int) "link aged out of the topology" 3
    (List.length (Apps.Topology.links topo));
  Alcotest.(check bool) "ping after reroute" true (ping ctl built.net ~src:"h1" ~dst_n:2)

let test_shell_administration_live () =
  (* §5.4 against a LIVE network: inspect with ls, push a flow with
     echo, shut a port with echo 1 > config.port_down. *)
  let built = N.Topo_gen.linear ~hosts_per_switch:2 1 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.3;
  let sh = Shell.Env.create (Yanc.Controller.fs ctl) in
  let out line =
    let r = Shell.Pipeline.run sh line in
    if r.Shell.Pipeline.code <> 0 then
      Alcotest.failf "shell: %s failed: %s" line r.Shell.Pipeline.err;
    r.Shell.Pipeline.out
  in
  (* "a quick overview of the switches in a network" *)
  Alcotest.(check string) "ls /net/switches" "sw1\n" (out "ls /net/switches");
  Alcotest.(check bool) "ls -l works" true (String.length (out "ls -l /net/switches") > 0);
  (* the static flow pusher as a real shell script *)
  let script =
    "mkdir /net/switches/sw1/flows/flood\n\
     echo flood > /net/switches/sw1/flows/flood/action.0.out\n\
     echo 10 > /net/switches/sw1/flows/flood/priority\n\
     echo 1 > /net/switches/sw1/flows/flood/version\n"
  in
  let r = Shell.Pipeline.run_script sh script in
  Alcotest.(check int) "pusher script ok" 0 r.Shell.Pipeline.code;
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check bool) "flow pushed from the shell works" true
    (ping ctl built.net ~src:"h1" ~dst_n:2);
  (* inspect flows with find | grep *)
  Alcotest.(check string) "find the flow" "/net/switches/sw1/flows/flood\n"
    (out "find /net -type d -name flood");
  (* cat the live counters *)
  Yanc.Controller.run_for ctl 6.0;
  let packets = out "cat /net/switches/sw1/flows/flood/counters/packets" in
  Alcotest.(check bool) "live counters readable" true
    (int_of_string (String.trim packets) > 0);
  (* shut the port down from the shell; traffic stops *)
  ignore (out "echo 1 > /net/switches/sw1/ports/port_1/config.port_down");
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check bool) "port down blocks traffic" false
    (ping ctl built.net ~src:"h1" ~dst_n:2);
  ignore (out "echo 0 > /net/switches/sw1/ports/port_1/config.port_down");
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check bool) "port up restores traffic" true
    (ping ctl built.net ~src:"h1" ~dst_n:2)

let test_switch_rename_via_mv () =
  (* Switches "can be created, deleted, and renamed with the standard
     file system calls" (§3.2) — here with the shell's mv on a live
     tree. *)
  let built = N.Topo_gen.linear 1 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.3;
  let sh = Shell.Env.create (Yanc.Controller.fs ctl) in
  let r = Shell.Pipeline.run sh "mv /net/switches/sw1 /net/switches/edge-1" in
  Alcotest.(check int) "mv ok" 0 r.Shell.Pipeline.code;
  Alcotest.(check (list string)) "renamed" [ "edge-1" ]
    (Y.Yanc_fs.switch_names (Yanc.Controller.yfs ctl))

let test_middlebox_migration_cp () =
  (* §7.2: "we can use command line utilities such as cp or mv to move
     state around rather than custom protocols". A 'firewall middlebox'
     is flow state on sw1; scale it out to sw2 with cp -r, drain sw1
     with rm -r. *)
  let built = N.Topo_gen.linear 2 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.3;
  let yfs = Yanc.Controller.yfs ctl in
  ignore
    (Apps.Flow_pusher.push_config yfs ~cred
       "sw1 name=fw-drop-telnet priority=500 match.dl_type=0x0800 \
        match.nw_proto=6 match.tp_dst=23 action.0.out=drop");
  Yanc.Controller.run_for ctl 0.3;
  let sh = Shell.Env.create (Yanc.Controller.fs ctl) in
  let r =
    Shell.Pipeline.run sh
      "cp -r /net/switches/sw1/flows/fw-drop-telnet /net/switches/sw2/flows/fw-drop-telnet"
  in
  Alcotest.(check int) "cp ok" 0 r.Shell.Pipeline.code;
  Yanc.Controller.run_for ctl 0.3;
  (* both switches now enforce exactly the committed rule in hardware *)
  let fsck () =
    List.map
      (fun (r : Yanc.Audit.report) -> (r.switch, Yanc.Audit.ok r, r.hw_rules))
      (Yanc.Controller.audit ctl)
  in
  let rules = Alcotest.(list (triple string bool int)) in
  Alcotest.(check rules) "sw1 and sw2 enforce after cp"
    [ ("sw1", true, 1); ("sw2", true, 1) ] (fsck ());
  (* drain the original: rm -r the flow dir *)
  let r2 = Shell.Pipeline.run sh "rm -r /net/switches/sw1/flows/fw-drop-telnet" in
  Alcotest.(check int) "rm ok" 0 r2.Shell.Pipeline.code;
  Yanc.Controller.run_for ctl 0.3;
  Alcotest.(check rules) "sw1 drained, sw2 keeps serving"
    [ ("sw1", true, 0); ("sw2", true, 1) ] (fsck ())

let test_multi_app_coexistence () =
  (* §2: multiple black-box applications on one network, with defined
     interaction: topology + router + arp proxy + auditor + accounting
     all running; the network still works and every app does its job. *)
  let built = N.Topo_gen.star ~leaves:3 () in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let topo = Apps.Topology.create yfs in
  let router = Apps.Router.create yfs in
  let arpd = Apps.Arp_daemon.create yfs in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.add_app ctl (Apps.Router.app router);
  Yanc.Controller.add_app ctl (Apps.Arp_daemon.app arpd);
  Yanc.Controller.add_app ctl
    (Apps.Auditor.app yfs ~cred ~out:(Vfs.Path.of_string_exn "/var/log/audit") ~period:2.);
  Yanc.Controller.add_app ctl
    (Apps.Accounting.app yfs ~cred ~dir:(Vfs.Path.of_string_exn "/var/acct") ~period:2.);
  Yanc.Controller.run_for ctl 3.0;
  Alcotest.(check bool) "h1 -> h2" true (ping ctl built.net ~src:"h1" ~dst_n:2);
  Alcotest.(check bool) "h2 -> h3" true (ping ctl built.net ~src:"h2" ~dst_n:3);
  Yanc.Controller.run_for ctl 3.0;
  let fs = Yanc.Controller.fs ctl in
  Alcotest.(check bool) "auditor wrote its report" true
    (Fs.exists fs ~cred (Vfs.Path.of_string_exn "/var/log/audit"));
  Alcotest.(check bool) "accounting wrote csvs" true
    (Fs.exists fs ~cred (Vfs.Path.of_string_exn "/var/acct/sw1.csv"));
  Alcotest.(check bool) "router tracked hosts" true (Apps.Router.hosts_tracked router >= 3)

let test_network_boots_from_nothing () =
  (* The full §2 application ecosystem bootstrapping a cold network:
     hosts have no addresses; dhcpd leases them, publishing hosts/;
     arpd proxy-answers from hosts/; the router then routes — each
     daemon a separate "process" touching only files. *)
  let built = N.Topo_gen.linear ~hosts_per_switch:1 ~dhcp:true 2 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let pool =
    List.map
      (fun i -> Option.get (P.Ipv4_addr.of_string (Printf.sprintf "10.7.0.%d" i)))
      [ 1; 2 ]
  in
  Yanc.Controller.add_app ctl (Apps.Topology.app (Apps.Topology.create yfs));
  Yanc.Controller.add_app ctl (Apps.Router.app (Apps.Router.create yfs));
  Yanc.Controller.add_app ctl
    (Apps.Dhcp_daemon.app (Apps.Dhcp_daemon.create ~pool yfs));
  Yanc.Controller.add_app ctl (Apps.Arp_daemon.app (Apps.Arp_daemon.create yfs));
  Yanc.Controller.run_for ctl 3.0;
  (* hosts boot *)
  let h1 = Option.get (N.Network.host built.net "h1") in
  let h2 = Option.get (N.Network.host built.net "h2") in
  N.Network.send_from_host built.net "h1" [ N.Sim_host.dhcp_discover h1 ~now:0. ];
  Alcotest.(check bool) "h1 got a lease" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ip h1 <> None));
  N.Network.send_from_host built.net "h2" [ N.Sim_host.dhcp_discover h2 ~now:0. ];
  Alcotest.(check bool) "h2 got a lease" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ip h2 <> None));
  (* h1 pings h2's leased address: needs arpd (proxy answer from
     hosts/) and the router (path setup) *)
  let h2_ip = Option.get (N.Sim_host.ip h2) in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net) ~dst:h2_ip ~seq:1);
  Alcotest.(check bool) "leased-address ping" true
    (Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> []));
  (* both leases visible as files *)
  Alcotest.(check int) "hosts/ has both" 2
    (List.length (Y.Yanc_fs.host_names yfs ~cred))

let test_of13_only_network_end_to_end () =
  (* everything, but the whole network speaks OF 1.3 *)
  let built = N.Topo_gen.linear 2 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ~version:Yanc.Controller.V13 ctl;
  let topo = Apps.Topology.create (Yanc.Controller.yfs ctl) in
  let router = Apps.Router.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.add_app ctl (Apps.Router.app router);
  Yanc.Controller.run_for ctl 3.0;
  Alcotest.(check bool) "reactive routing over OF1.3" true
    (ping ctl built.net ~src:"h1" ~dst_n:2)

let test_cost_accounting_visible () =
  (* The §8.1 effect is observable in a live run: a reactive ping costs
     hundreds of syscalls. *)
  let built = N.Topo_gen.linear 2 in
  let ctl, _, _ = full_stack built in
  let crossings () =
    let reg = Fs.registry (Yanc.Controller.fs ctl) in
    match
      Telemetry.Registry.find (Telemetry.Registry.snapshot reg) "vfs.crossings"
    with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "no vfs.crossings series"
  in
  let before = crossings () in
  Alcotest.(check bool) "ping" true (ping ctl built.net ~src:"h1" ~dst_n:2);
  let spent = crossings () - before in
  Alcotest.(check bool) "reactive setup costs many crossings" true (spent > 50)

let () =
  Alcotest.run "integration"
    [ ( "end-to-end",
        [ Alcotest.test_case "fat-tree reachability" `Slow test_fat_tree_all_pairs;
          Alcotest.test_case "tcp through fabric" `Quick test_tcp_through_fabric;
          Alcotest.test_case "link failure reroute" `Quick test_link_failure_reroute;
          Alcotest.test_case "OF1.3-only network" `Quick test_of13_only_network_end_to_end;
          Alcotest.test_case "cold boot: dhcp+arp+router" `Quick
            test_network_boots_from_nothing ] );
      ( "administration",
        [ Alcotest.test_case "coreutils on a live net" `Quick
            test_shell_administration_live;
          Alcotest.test_case "rename switch with mv" `Quick test_switch_rename_via_mv;
          Alcotest.test_case "middlebox migration with cp" `Quick
            test_middlebox_migration_cp ] );
      ( "ecosystem",
        [ Alcotest.test_case "five apps coexist" `Quick test_multi_app_coexistence;
          Alcotest.test_case "syscall cost visible" `Quick test_cost_accounting_visible ] ) ]
