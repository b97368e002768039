(* The paper's §8 prototype at datacenter scale: LLDP topology daemon +
   reactive exact-match router on a k=4 fat tree. Every component
   interacts only through the file system.

     dune exec examples/reactive_router.exe *)

module N = Netsim

let () =
  Printf.printf "building a k=4 fat tree (20 switches, 16 hosts)...\n%!";
  let built = N.Topo_gen.fat_tree ~k:4 () in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  let yfs = Yanc.Controller.yfs ctl in
  let topo = Apps.Topology.create yfs in
  let router = Apps.Router.create yfs in
  Yanc.Controller.add_app ctl (Apps.Topology.app topo);
  Yanc.Controller.add_app ctl (Apps.Router.app router);

  Printf.printf "running LLDP discovery...\n%!";
  Yanc.Controller.run_for ctl 3.0;
  Printf.printf "  %d fabric links discovered (ground truth: 32)\n"
    (List.length (Apps.Topology.links topo));

  let reg = Vfs.Fs.registry (Yanc.Controller.fs ctl) in
  let counter name =
    Telemetry.Registry.value (Telemetry.Registry.counter reg name)
  in
  let ping src dst_n =
    let h = Option.get (N.Network.host built.net src) in
    let seq = List.length (N.Sim_host.ping_results h) + 1 in
    let crossings_before = counter "vfs.crossings" in
    N.Network.send_from_host built.net src
      (N.Sim_host.ping h ~now:(N.Network.now built.net)
         ~dst:(N.Topo_gen.host_ip dst_n) ~seq);
    let ok =
      Yanc.Controller.run_until ctl (fun () ->
          List.length (N.Sim_host.ping_results h) >= seq)
    in
    let rtt =
      match List.rev (N.Sim_host.ping_results h) with
      | r :: _ -> r.N.Sim_host.rtt
      | [] -> nan
    in
    Printf.printf "  %-4s -> h%-2d : %-4s rtt=%6.2f ms  syscalls=%d\n" src dst_n
      (if ok then "ok" else "FAIL")
      (rtt *. 1000.)
      (counter "vfs.crossings" - crossings_before)
  in

  Printf.printf "\nfirst packets (reactive path setup through packet-ins):\n";
  ping "h1" 2;   (* same edge switch *)
  ping "h1" 3;   (* same pod *)
  ping "h1" 16;  (* across the core *)
  ping "h8" 9;   (* pod 2 -> pod 3 *)

  Printf.printf "\nsame flows again (pure hardware, no controller involvement):\n";
  ping "h1" 2;
  ping "h1" 16;

  Printf.printf "\nrouter state: %d paths installed, %d hosts tracked\n"
    (Apps.Router.paths_installed router)
    (Apps.Router.hosts_tracked router);

  (* the hosts directory is a live inventory *)
  let sh = Shell.Env.create (Yanc.Controller.fs ctl) in
  let r = Shell.Pipeline.run sh "ls /net/hosts | wc -l" in
  Printf.printf "hosts published under /net/hosts: %s" r.Shell.Pipeline.out;

  Printf.printf "file-system counters:";
  List.iter
    (fun name -> Printf.printf " %s=%d" name (counter name))
    [ "vfs.crossings"; "vfs.components"; "fsnotify.events_dispatched";
      "fsnotify.watches_visited" ];
  print_newline ();
  let delivered, dropped = N.Network.stats built.net in
  Printf.printf "data plane: %d frames delivered, %d dropped\n" delivered dropped;
  print_endline "reactive_router done."
