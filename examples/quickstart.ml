(* Quickstart: bring up a 3-switch network, administer it entirely from
   the shell — exactly the workflow the paper's §5.4 advertises.

     dune exec examples/quickstart.exe *)

module N = Netsim

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n%!")

let sh env line =
  Printf.printf "$ %s\n" line;
  let r = Shell.Pipeline.run env line in
  print_string r.Shell.Pipeline.out;
  if r.Shell.Pipeline.err <> "" then prerr_string r.Shell.Pipeline.err;
  r.Shell.Pipeline.code

let () =
  step "boot: 3 switches in a line, one host per switch";
  let built = N.Topo_gen.linear 3 in
  let ctl = Yanc.Controller.create ~net:built.net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.3;

  let env = Shell.Env.create (Yanc.Controller.fs ctl) in

  step "the network is a file system (paper Figure 2)";
  ignore (sh env "tree /net");

  step "a quick overview of the switches (paper 5.4)";
  ignore (sh env "ls -l /net/switches");
  ignore (sh env "cat /net/switches/sw1/id /net/switches/sw1/protocol");

  step "the static flow pusher is a shell script (paper 8)";
  let pusher =
    String.concat "\n"
      (List.concat_map
         (fun sw ->
           [ Printf.sprintf "mkdir /net/switches/%s/flows/flood" sw;
             Printf.sprintf "echo flood > /net/switches/%s/flows/flood/action.0.out" sw;
             Printf.sprintf "echo 10 > /net/switches/%s/flows/flood/priority" sw;
             Printf.sprintf "echo 1 > /net/switches/%s/flows/flood/version" sw ])
         [ "sw1"; "sw2"; "sw3" ])
  in
  print_string (pusher ^ "\n");
  let r = Shell.Pipeline.run_script env pusher in
  assert (r.Shell.Pipeline.code = 0);
  Yanc.Controller.run_for ctl 0.3;

  step "ping h1 -> h3 across all three switches";
  let h1 = Option.get (N.Network.host built.net "h1") in
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 3) ~seq:1);
  let ok =
    Yanc.Controller.run_until ctl (fun () -> N.Sim_host.ping_results h1 <> [])
  in
  Printf.printf "ping: %s\n"
    (if ok then "64 bytes from 10.0.0.3: icmp_seq=1  (OK)" else "FAILED");

  step "find every flow that floods (paper's find|grep one-liner)";
  ignore (sh env "find /net -name action.0.out -exec grep flood");

  step "live counters, read with cat";
  Yanc.Controller.run_for ctl 6.0;
  ignore (sh env "cat /net/switches/sw2/flows/flood/counters/packets");

  step "take a port down with echo (paper 3.1), watch the ping fail";
  ignore (sh env "echo 1 > /net/switches/sw2/ports/port_1/config.port_down");
  Yanc.Controller.run_for ctl 0.3;
  N.Network.send_from_host built.net "h1"
    (N.Sim_host.ping h1 ~now:(N.Network.now built.net)
       ~dst:(N.Topo_gen.host_ip 3) ~seq:2);
  let blocked =
    not
      (Yanc.Controller.run_until ~timeout:2. ctl (fun () ->
           List.length (N.Sim_host.ping_results h1) >= 2))
  in
  Printf.printf "ping while port down: %s\n"
    (if blocked then "blocked (expected)" else "unexpectedly succeeded");
  ignore (sh env "echo 0 > /net/switches/sw2/ports/port_1/config.port_down");
  Yanc.Controller.run_for ctl 0.3;

  step "syscall accounting (paper 8.1)";
  (* The file system's counters, read from the registry it shares with
     the controller: the vfs.* and fsnotify.* lines of
     /yanc/.proc/metrics. *)
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  Printf.printf "this session cost:\n";
  List.iter
    (fun name ->
      Printf.printf "  %s %d\n" name
        (Telemetry.Registry.value (Telemetry.Registry.counter reg name)))
    [ "vfs.crossings"; "vfs.components"; "fsnotify.events_dispatched";
      "fsnotify.watches_visited"; "fsnotify.events_coalesced";
      "fsnotify.overflows" ];
  print_endline "\nquickstart done."
