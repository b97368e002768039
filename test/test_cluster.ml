(* The sharded multi-node controller: shard-map properties (QCheck),
   boot-time ownership, cross-node flow writes riding the DFS to the
   owner's hardware, and kill/takeover reconvergence. *)

module N = Netsim
module Y = Yancfs
module D = Driver
module SM = Dfs.Shard_map

let cred = Vfs.Cred.root

(* --- shard map: property tests ----------------------------------------------- *)

(* Membership generator: distinct names out of a small pool, ≥1. *)
let members_gen =
  QCheck.Gen.(
    map
      (fun bits ->
        let all = List.init 8 (fun i -> Printf.sprintf "n%d" i) in
        let picked = List.filteri (fun i _ -> (bits lsr i) land 1 = 1) all in
        if picked = [] then [ "n0" ] else picked)
      (int_range 1 255))

let arb_members = QCheck.make ~print:(String.concat ",") members_gen

let arb_dpid =
  QCheck.make
    ~print:Int64.to_string
    QCheck.Gen.(map Int64.of_int (int_range 1 100000))

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let tagged = List.map (fun x -> (Random.State.bits st, x)) l in
  List.map snd (List.sort compare tagged)

let prop_deterministic =
  QCheck.Test.make ~name:"owner is a pure function of (dpid, member set)"
    ~count:500
    QCheck.(triple arb_members arb_dpid small_int)
    (fun (members, dpid, seed) ->
      SM.owner ~members ~dpid = SM.owner ~members:(shuffle seed members) ~dpid)

let prop_minimal_movement_leave =
  QCheck.Test.make
    ~name:"node leave moves only the departed node's shards" ~count:200
    arb_members
    (fun members ->
      QCheck.assume (List.length members >= 2);
      let dpids = List.init 200 (fun i -> Int64.of_int (i + 1)) in
      let departed = List.hd members in
      let rest = List.tl members in
      List.for_all
        (fun dpid ->
          let before = SM.owner ~members ~dpid in
          let after = SM.owner ~members:rest ~dpid in
          if before = Some departed then after <> Some departed
          else after = before)
        dpids)

let prop_minimal_movement_join =
  QCheck.Test.make
    ~name:"node join moves shards only onto the joiner" ~count:200
    arb_members
    (fun members ->
      QCheck.assume (not (List.mem "fresh" members));
      let dpids = List.init 200 (fun i -> Int64.of_int (i + 1)) in
      let joined = "fresh" :: members in
      List.for_all
        (fun dpid ->
          let before = SM.owner ~members ~dpid in
          let after = SM.owner ~members:joined ~dpid in
          after = before || after = Some "fresh")
        dpids)

let prop_replicas_owner_first =
  QCheck.Test.make
    ~name:"replica set is owner-first, distinct, size min(k,n)" ~count:300
    QCheck.(pair arb_members arb_dpid)
    (fun (members, dpid) ->
      let reps = SM.replicas ~members ~k:2 ~dpid in
      List.length reps = min 2 (List.length members)
      && List.sort_uniq compare reps = List.sort compare reps
      && (match (reps, SM.owner ~members ~dpid) with
         | r :: _, Some o -> r = o
         | [], None -> true
         | _ -> false))

let prop_balanced_cap =
  QCheck.Test.make
    ~name:"balanced assignment is total and respects the load cap" ~count:300
    QCheck.(pair arb_members small_int)
    (fun (members, sz) ->
      let d = 1 + (sz mod 200) in
      let dpids = List.init d (fun i -> Int64.of_int (i + 1)) in
      let map = SM.assign_balanced ~members ~dpids () in
      let n = List.length members in
      let cap =
        max 1 (int_of_float (ceil (1.10 *. float_of_int d /. float_of_int n)))
      in
      List.length map = d
      && List.sort_uniq compare (List.map fst map) = dpids
      && List.for_all
           (fun m ->
             List.length (List.filter (fun (_, o) -> o = m) map) <= cap)
           members)

let prop_balanced_deterministic =
  QCheck.Test.make
    ~name:"balanced assignment is a pure function of the two sets" ~count:200
    QCheck.(pair arb_members small_int)
    (fun (members, seed) ->
      let dpids = List.init 150 (fun i -> Int64.of_int (i + 1)) in
      SM.assign_balanced ~members ~dpids ()
      = SM.assign_balanced ~members:(shuffle seed members)
          ~dpids:(shuffle (seed + 1) dpids) ())

let prop_balanced_movement_leave =
  QCheck.Test.make
    ~name:"balanced leave moves only departed or overflow shards" ~count:200
    arb_members
    (fun members ->
      QCheck.assume (List.length members >= 2);
      let dpids = List.init 200 (fun i -> Int64.of_int (i + 1)) in
      let departed = List.hd members in
      let rest = List.tl members in
      let before = SM.assign_balanced ~members ~dpids () in
      let after = SM.assign_balanced ~members:rest ~dpids () in
      List.for_all
        (fun dpid ->
          let b = List.assoc dpid before and a = List.assoc dpid after in
          (* A surviving shard that moves must be part of the bounded
             overflow tail: off its rendezvous first choice on at least
             one side of the change. *)
          b = departed || a = b
          || Some b <> SM.owner ~members ~dpid
          || Some a <> SM.owner ~members:rest ~dpid)
        dpids)

(* --- cluster fixtures --------------------------------------------------------- *)

let fast_tuning =
  { D.Driver_intf.default_tuning with D.Driver_intf.stats_interval = 0. }

let boot ?(n = 2) ?(k = 4) () =
  let built = N.Topo_gen.fat_tree ~k () in
  let c =
    Yanc.Cluster.create ~tuning:fast_tuning ~n ~net:built.N.Topo_gen.net ()
  in
  Yanc.Cluster.run_for ~tick:0.02 c 1.0;
  (built, c)

(* --- unit tests --------------------------------------------------------------- *)

let test_boot_ownership () =
  let built, c = boot () in
  Alcotest.(check (list int64)) "every shard owned" [] (Yanc.Cluster.unowned c);
  Alcotest.(check bool) "cluster converged after boot" true
    (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  (* ownership matches the bounded-load shard map *)
  let members = List.map (Yanc.Cluster.name_of c) (Yanc.Cluster.live_indexes c) in
  let expected_map =
    SM.assign_balanced ~members ~dpids:built.N.Topo_gen.dpids ()
  in
  List.iter
    (fun dpid ->
      let expected = List.assoc_opt dpid expected_map in
      let actual =
        Option.map (Yanc.Cluster.name_of c) (Yanc.Cluster.owner_index c dpid)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "dpid %Ld owner" dpid)
        expected actual)
    built.N.Topo_gen.dpids;
  let counts =
    List.map (fun i -> List.length (D.Manager.attached
        (Yanc.Controller.manager (Yanc.Cluster.controller c i))))
      (Yanc.Cluster.live_indexes c)
  in
  Alcotest.(check int) "all switches attached once"
    (List.length built.N.Topo_gen.dpids)
    (List.fold_left ( + ) 0 counts)

let test_cross_node_flow_reaches_owner_hardware () =
  let built, c = boot () in
  ignore (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  (* pick a switch NOT owned by node 0 and write a flow via node 0 *)
  let dpid =
    List.find
      (fun d -> Yanc.Cluster.owner_index c d <> Some 0)
      built.N.Topo_gen.dpids
  in
  let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
  let yfs0 = Yanc.Controller.yfs (Yanc.Cluster.controller c 0) in
  let flow =
    { Y.Flowdir.default with
      Y.Flowdir.of_match =
        { Openflow.Of_match.any with Openflow.Of_match.in_port = Some 1 };
      actions = [ Openflow.Action.Output (Openflow.Action.Physical 2) ];
      priority = 77 }
  in
  (match Y.Yanc_fs.create_flow yfs0 ~cred ~switch:swname ~name:"xnode" flow with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "create_flow: %s" (Vfs.Errno.to_string e));
  (* replication (0.05 s visibility) + owner's commit + install: until
     then replication is not quiet, so converged means installed *)
  Alcotest.(check bool) "converged again" true
    (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  (* the owner's replica holds the priority-77 flow as its one rule,
     and its shard is ok: the rule is on the owner's hardware *)
  let owner = Yanc.Cluster.controller c (Option.get (Yanc.Cluster.owner_index c dpid)) in
  Alcotest.(check bool) "owner's replica holds the flow" true
    (Result.map (fun (f : Y.Flowdir.t) -> f.priority)
       (Y.Yanc_fs.read_flow (Yanc.Controller.yfs owner) ~cred ~switch:swname "xnode")
    = Ok 77);
  let shards = Yanc.Cluster.shards c in
  Alcotest.(check bool) "flow on the owner's hardware" true
    (List.exists
       (function
         | Yanc.Audit.Owned (_, r) ->
           r.switch = swname && Yanc.Audit.ok r && r.invalid = []
           && r.fs_rules = 1 && r.hw_rules = 1
         | Yanc.Audit.Unowned _ -> false)
       shards);
  (* every replica's fsck file prints exactly the library's verdict *)
  List.iter
    (fun i ->
      let sh = Shell.Env.create (Yanc.Controller.fs (Yanc.Cluster.controller c i)) in
      let r = Shell.Pipeline.run sh "cat /yanc/cluster/.proc/fsck" in
      Alcotest.(check string) "cat = render_shards" (Yanc.Audit.render_shards shards)
        r.Shell.Pipeline.out)
    [ 0; 1 ]

(* Two nodes each post a packet-out into the spool of a switch a third
   node owns, within one replication window: each node's mount numbers
   its records in its own slice, so the two names never collide on the
   owner's replica, and the owner sends both frames to the switch's
   host. *)
let test_two_nodes_one_spool () =
  let built, c = boot ~n:3 () in
  ignore (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  let net = built.N.Topo_gen.net in
  let dpid, port, host =
    List.find_map
      (function
        | N.Network.Sw (d, p), N.Network.Hst h | N.Network.Hst h, N.Network.Sw (d, p)
          when Yanc.Cluster.owner_index c d = Some 2 ->
          Some (d, p, h)
        | _ -> None)
      (N.Network.link_endpoints net)
    |> Option.get
  in
  let h = Option.get (N.Network.host net host) in
  N.Sim_host.listen h 1234;
  let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
  let submit i payload =
    let frame =
      Packet.Builder.udp ~src_mac:(Packet.Mac.of_int 0x02ffff) ~dst_mac:(N.Sim_host.mac h)
        ~src_ip:(N.Topo_gen.host_ip 99) ~dst_ip:(Option.get (N.Sim_host.ip h))
        ~src_port:9999 ~dst_port:1234 payload
    in
    match
      Y.Outdir.submit (Yanc.Controller.yfs (Yanc.Cluster.controller c i)) ~cred
        ~switch:swname ~actions:[ Openflow.Action.Output (Openflow.Action.Physical port) ]
        ~data:(Packet.Eth.to_wire frame) ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit on node %d: %s" i (Vfs.Errno.to_string e)
  in
  submit 0 "from-node0";
  submit 1 "from-node1";
  ignore (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  Yanc.Cluster.run_for ~tick:0.02 c 0.2;
  Alcotest.(check (list string)) "the owner sent both" [ "from-node0"; "from-node1" ]
    (List.sort compare (List.map snd (N.Sim_host.received_udp h)));
  let count i name =
    Telemetry.Registry.value
      (Telemetry.Registry.counter
         (Vfs.Fs.registry (Yanc.Controller.fs (Yanc.Cluster.controller c i))) name)
  in
  Alcotest.(check int) "no replay failed" 0 (count 0 "dfs.replay_failed");
  Alcotest.(check int) "the owner's driver: no fs error" 0 (count 2 "driver.fs_errors")

let test_kill_one_of_two_takeover () =
  let built, c = boot () in
  ignore (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  (* give the fleet some installed state to carry across the takeover *)
  let yfs0 = Yanc.Controller.yfs (Yanc.Cluster.controller c 0) in
  List.iteri
    (fun i dpid ->
      let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
      let flow =
        { Y.Flowdir.default with
          Y.Flowdir.of_match =
            { Openflow.Of_match.any with Openflow.Of_match.in_port = Some 1 };
          actions = [ Openflow.Action.Output (Openflow.Action.Physical 2) ];
          priority = 100 + i }
      in
      ignore (Y.Yanc_fs.create_flow yfs0 ~cred ~switch:swname ~name:"seed" flow))
    built.N.Topo_gen.dpids;
  Alcotest.(check bool) "seeded state converged" true
    (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  let victim = 1 in
  let orphaned =
    List.filter
      (fun d -> Yanc.Cluster.owner_index c d = Some victim)
      built.N.Topo_gen.dpids
  in
  Alcotest.(check bool) "victim owned something" true (orphaned <> []);
  let t_kill = N.Network.now built.N.Topo_gen.net in
  Yanc.Cluster.kill c victim;
  let ok =
    Yanc.Cluster.run_until ~tick:0.02 ~timeout:10. c (fun () ->
        Yanc.Cluster.converged c)
  in
  let takeover_s = N.Network.now built.N.Topo_gen.net -. t_kill in
  Alcotest.(check bool) "reconverged after kill" true ok;
  Alcotest.(check bool) "takeover within lease + resync budget" true
    (takeover_s < 5.);
  (* every orphaned shard now lives on the survivor *)
  List.iter
    (fun d ->
      Alcotest.(check (option int))
        (Printf.sprintf "dpid %Ld re-owned" d)
        (Some 0)
        (Yanc.Cluster.owner_index c d))
    orphaned;
  Alcotest.(check bool) "survivor recorded takeovers" true
    (Yanc.Cluster.takeovers c 0 >= List.length orphaned)

(* A rule the dying owner put on hardware before replication carried
   it: the survivor's replica never held it, so it is a stray, and the
   takeover handshake's reconcile must delete it. *)
let test_takeover_deletes_unreplicated_stray () =
  let built, c = boot () in
  ignore (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  let victim = 1 in
  let dpid =
    List.find
      (fun d -> Yanc.Cluster.owner_index c d = Some victim)
      built.N.Topo_gen.dpids
  in
  let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
  let report () =
    List.find_map
      (function
        | Yanc.Audit.Owned (_, r) when r.Yanc.Audit.switch = swname -> Some r
        | Yanc.Audit.Owned _ | Yanc.Audit.Unowned _ -> None)
      (Yanc.Cluster.shards c)
  in
  let yfs1 = Yanc.Controller.yfs (Yanc.Cluster.controller c victim) in
  let flow =
    { Y.Flowdir.default with
      Y.Flowdir.of_match =
        { Openflow.Of_match.any with Openflow.Of_match.in_port = Some 1 };
      actions = [ Openflow.Action.Output (Openflow.Action.Physical 2) ];
      priority = 77 }
  in
  (match Y.Yanc_fs.create_flow yfs1 ~cred ~switch:swname ~name:"lost" flow with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "create_flow: %s" (Vfs.Errno.to_string e));
  (* one 5 ms step: installed, not yet replicated (0.05 s) *)
  Yanc.Cluster.step c;
  Alcotest.(check (option int)) "the rule is on hardware" (Some 1)
    (Option.map (fun (r : Yanc.Audit.report) -> r.hw_rules) (report ()));
  Yanc.Cluster.kill c victim;
  Alcotest.(check bool) "converged after takeover" true
    (Yanc.Cluster.run_until ~tick:0.02 ~timeout:10. c (fun () ->
         Yanc.Cluster.converged c));
  match report () with
  | None -> Alcotest.fail "switch not owned after takeover"
  | Some r ->
    Alcotest.(check (pair (option int) int)) "survivor owns it, no hw_only"
      (Some 0, 0)
      (Yanc.Cluster.owner_index c dpid, List.length r.hw_only)

(* A coordination write that fails is counted, not dropped: with node
   1's replica read-only its next lease renewal fails, bumps its
   cluster.fs_errors counter, and the fleet health report goes crit. *)
let test_failed_lease_write_counted () =
  let _built, c = boot () in
  let errors () =
    Telemetry.Registry.find
      (Telemetry.Registry.snapshot
         (Telemetry.registry
            (Yanc.Controller.telemetry (Yanc.Cluster.controller c 1))))
      "cluster.fs_errors"
  in
  Alcotest.(check (option (float 0.))) "no errors while writable" (Some 0.)
    (errors ());
  Vfs.Fs.set_readonly (Dfs.Cluster.node (Yanc.Cluster.dfs c) 1) true;
  (* one renew interval (0.25 s) and change *)
  Yanc.Cluster.run_for ~tick:0.02 c 0.3;
  Alcotest.(check bool) "the failed renewal was counted" true
    (match errors () with Some v -> v >= 1. | None -> false);
  match
    Vfs.Fs.read_file
      (Yanc.Controller.fs (Yanc.Cluster.controller c 0))
      ~cred
      (Y.Layout.proc_health ~proc:Y.Layout.cluster_proc_root)
  with
  | Error e -> Alcotest.failf "cluster health: %s" (Vfs.Errno.to_string e)
  | Ok report ->
    Alcotest.(check bool) "health is crit" true
      (Telemetry.Health.status_of_render report = Some Telemetry.Health.Crit);
    Alcotest.(check bool) "the cluster_fs_errors probe fired" true
      (List.exists
         (fun line ->
           match String.split_on_char ' ' line with
           | "cluster_fs_errors" :: "crit" :: _ -> true
           | _ -> false)
         (String.split_on_char '\n' report))

let test_sync_subtree_antientropy () =
  let c = Dfs.Cluster.create ~consistency:Dfs.Consistency.Sequential ~n:3 () in
  (* route everything under /data to replica 1 only, leaving 2 stale *)
  Dfs.Cluster.set_route c
    (Some
       (fun op ~origin:_ ->
         let s = Vfs.Path.to_string (Vfs.Op.path op) in
         if String.length s >= 5 && String.sub s 0 5 = "/data" then Some [ 1 ]
         else None));
  let fs0 = Dfs.Cluster.node c 0 in
  let p = Vfs.Path.of_string_exn in
  ignore (Vfs.Fs.mkdir_p fs0 ~cred (p "/data/sub"));
  ignore (Vfs.Fs.write_file fs0 ~cred (p "/data/sub/f") "payload");
  ignore (Vfs.Fs.symlink fs0 ~cred ~target:"sub/f" (p "/data/link"));
  let fs2 = Dfs.Cluster.node c 2 in
  Alcotest.(check bool) "replica 2 stale before sync" true
    (Result.is_error (Vfs.Fs.read_file fs2 ~cred (p "/data/sub/f")));
  let n = Dfs.Cluster.sync_subtree c ~from_:0 ~to_:2 (p "/data") in
  Alcotest.(check bool) "sync emitted ops" true (n > 0);
  Alcotest.(check string) "file content synced" "payload"
    (Result.get_ok (Vfs.Fs.read_file fs2 ~cred (p "/data/sub/f")));
  Alcotest.(check string) "symlink synced" "sub/f"
    (Result.get_ok (Vfs.Fs.readlink fs2 ~cred (p "/data/link")))

(* --- cluster observability ---------------------------------------------------- *)

let read_node_proc c i file =
  let proc = Y.Layout.node_proc_root (Yanc.Cluster.name_of c i) in
  Vfs.Fs.read_file
    (Yanc.Controller.fs (Yanc.Cluster.controller c i))
    ~cred (file ~proc)

let tok_value line key =
  List.find_map
    (fun tok ->
      let kl = String.length key in
      if String.length tok > kl && String.sub tok 0 kl = key then
        Some (String.sub tok kl (String.length tok - kl))
      else None)
    (String.split_on_char ' ' line)

(* (trace, stage) per pipe line, untraced spans excluded *)
let pipe_spans data =
  List.filter_map
    (fun line ->
      match (tok_value line "trace=", tok_value line "stage=") with
      | Some tr, Some st when tr <> "0" -> Some (int_of_string tr, st)
      | _ -> None)
    (String.split_on_char '\n' data)

let boot_traced ?(n = 2) ?(k = 4) ?seed () =
  let built = N.Topo_gen.fat_tree ~k () in
  let c =
    Yanc.Cluster.create ~tracing:true ~tuning:fast_tuning ?seed ~n
      ~net:built.N.Topo_gen.net ()
  in
  ignore
    (Yanc.Cluster.run_until ~tick:0.02 c (fun () -> Yanc.Cluster.converged c));
  (built, c)

(* One cross-node write under a client-side trace, the yancctl pattern:
   fresh trace → span over create_flow on node 0's replica for a switch
   owned elsewhere, stamping the flow's correlation key so the owner's
   driver resumes the trace at install time. *)
let traced_write built c =
  let dpid =
    List.find
      (fun d -> Yanc.Cluster.owner_index c d <> Some 0)
      built.N.Topo_gen.dpids
  in
  let swname = Y.Yanc_fs.switch_name_of_dpid dpid in
  let ctl0 = Yanc.Cluster.controller c 0 in
  let tr = Telemetry.tracer (Yanc.Controller.telemetry ctl0) in
  let id = Telemetry.Tracer.fresh tr in
  Fun.protect
    ~finally:(fun () -> Telemetry.Tracer.clear tr)
    (fun () ->
      Telemetry.Tracer.span tr ~stage:"test.flow_write" (fun () ->
          Telemetry.Tracer.stamp tr (Y.Layout.trace_key_flow ~switch:swname "t");
          let flow =
            { Y.Flowdir.default with
              Y.Flowdir.of_match =
                { Openflow.Of_match.any with Openflow.Of_match.in_port = Some 1 };
              actions = [ Openflow.Action.Output (Openflow.Action.Physical 2) ];
              priority = 77 }
          in
          match
            Y.Yanc_fs.create_flow (Yanc.Controller.yfs ctl0) ~cred
              ~switch:swname ~name:"t" flow
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "create_flow: %s" (Vfs.Errno.to_string e)));
  (id, dpid)

let test_one_trace_two_rings () =
  let built, c = boot_traced () in
  let id, dpid = traced_write built c in
  Alcotest.(check bool) "trace id minted" true (id <> 0);
  Yanc.Cluster.run_for ~tick:0.01 c 0.5;
  let owner =
    match Yanc.Cluster.owner_index c dpid with
    | Some i -> i
    | None -> Alcotest.fail "written switch unowned"
  in
  Alcotest.(check bool) "write targeted a foreign owner" true (owner <> 0);
  let spans i =
    match read_node_proc c i Y.Layout.proc_trace_pipe with
    | Ok d -> pipe_spans d
    | Error e -> Alcotest.failf "trace_pipe: %s" (Vfs.Errno.to_string e)
  in
  let stages_of l =
    List.filter_map (fun (t, st) -> if t = id then Some st else None) l
  in
  let st0 = stages_of (spans 0) and st_owner = stages_of (spans owner) in
  Alcotest.(check bool) "origin ring holds the client span" true
    (List.mem "test.flow_write" st0);
  Alcotest.(check bool) "origin ring holds dfs.forward" true
    (List.mem "dfs.forward" st0);
  Alcotest.(check bool) "owner ring resumed the same trace (dfs.apply)" true
    (List.mem "dfs.apply" st_owner);
  Alcotest.(check bool) "owner ring reached hardware (switch.install)" true
    (List.mem "switch.install" st_owner)

let test_cross_node_trace_determinism () =
  let run_once () =
    let built, c = boot_traced ~seed:42 () in
    ignore (traced_write built c);
    Yanc.Cluster.run_for ~tick:0.01 c 0.5;
    List.sort compare
      (List.concat_map
         (fun i ->
           match read_node_proc c i Y.Layout.proc_trace_pipe with
           | Ok d -> pipe_spans d
           | Error _ -> [])
         (Yanc.Cluster.live_indexes c))
  in
  let a = run_once () in
  let b = run_once () in
  Alcotest.(check bool) "traced spans present" true (a <> []);
  Alcotest.(check (list (pair int string)))
    "same seed, same cross-node span set" a b

(* A replication storm against a deliberately tiny trace ring: the ring
   overruns, and the accounting stays exact — every span ever recorded
   is either still drainable or counted dropped. *)
let test_ring_overflow_accounting_under_storm () =
  let reg = Telemetry.Registry.create () in
  let tr = Telemetry.Tracer.create ~capacity:8 reg in
  Telemetry.Tracer.set_enabled tr true;
  let c = Dfs.Cluster.create ~n:2 () in
  Dfs.Cluster.set_tracing c (Some ((fun _ -> Some tr), fun _ -> None));
  let fs0 = Dfs.Cluster.node c 0 in
  let p = Vfs.Path.of_string_exn in
  ignore (Vfs.Fs.mkdir_p fs0 ~cred (p "/storm"));
  Dfs.Cluster.flush c;
  let writes = 100 in
  for i = 1 to writes do
    ignore (Telemetry.Tracer.fresh tr);
    ignore
      (Vfs.Fs.write_file fs0 ~cred (p (Printf.sprintf "/storm/f%d" i)) "x");
    Telemetry.Tracer.clear tr
  done;
  Dfs.Cluster.flush c;
  let recorded = Telemetry.Tracer.spans_recorded tr in
  let dropped = Telemetry.Tracer.drops tr in
  let drained = List.length (Telemetry.Tracer.drain tr) in
  Alcotest.(check bool) "storm recorded at least one span per write" true
    (recorded >= writes);
  Alcotest.(check bool) "ring overran" true (dropped > 0);
  Alcotest.(check bool) "window bounded by capacity" true (drained <= 8);
  Alcotest.(check int) "accounting exact: recorded = dropped + drained"
    recorded (dropped + drained)

let test_rollup_matches_hand_merge () =
  let built, c = boot_traced () in
  ignore (traced_write built c);
  Yanc.Cluster.run_for ~tick:0.01 c 0.5;
  let live = Yanc.Cluster.live_indexes c in
  let regs =
    List.map
      (fun i ->
        Telemetry.registry (Yanc.Controller.telemetry (Yanc.Cluster.controller c i)))
      live
  in
  let roll = Yanc.Cluster.rollup_snapshot c in
  let get name =
    match Telemetry.Registry.find roll name with
    | Some v -> v
    | None -> Alcotest.failf "rollup missing %s" name
  in
  (* histogram: bucket-wise hand-merge with an independent upper-bound
     percentile walk must reproduce the rollup's flattened stats *)
  let series = "trace.dfs.apply" in
  let hs = List.map (fun r -> Telemetry.Registry.histogram r series) regs in
  let bucket i =
    List.fold_left (fun acc h -> acc + Telemetry.Registry.hist_bucket h i) 0 hs
  in
  let buckets = Array.init 63 bucket in
  let count = Array.fold_left ( + ) 0 buckets in
  Alcotest.(check bool) "apply spans landed" true (count > 0);
  let max_v =
    List.fold_left (fun acc h -> max acc (Telemetry.Registry.hist_max h)) 0. hs
  in
  let hand_percentile q =
    let rank =
      max 1 (min count (int_of_float (ceil (q *. float_of_int count))))
    in
    let i = ref 0 and cum = ref buckets.(0) in
    while !cum < rank && !i < 62 do
      incr i;
      cum := !cum + buckets.(!i)
    done;
    min (float_of_int (1 lsl (min 62 (!i + 1))) *. 1e-9) max_v
  in
  Alcotest.(check (float 0.)) "rollup count = summed buckets"
    (float_of_int count)
    (get (series ^ ".count"));
  Alcotest.(check (float 1e-15)) "rollup p50 = hand-merged percentile"
    (hand_percentile 0.5)
    (get (series ^ ".p50"));
  Alcotest.(check (float 1e-15)) "rollup p99 = hand-merged percentile"
    (hand_percentile 0.99)
    (get (series ^ ".p99"));
  Alcotest.(check (float 1e-15)) "rollup max = max of maxes" max_v
    (get (series ^ ".max"));
  Alcotest.(check (float 0.)) "rollup counts the live fleet"
    (float_of_int (List.length live))
    (get "cluster.live_nodes");
  (* the same rollup is served as a file at /yanc/cluster/.proc/metrics *)
  match
    Vfs.Fs.read_file
      (Yanc.Controller.fs (Yanc.Cluster.controller c (List.hd live)))
      ~cred
      (Y.Layout.proc_metrics ~proc:Y.Layout.cluster_proc_root)
  with
  | Error e -> Alcotest.failf "cluster metrics: %s" (Vfs.Errno.to_string e)
  | Ok data ->
    Alcotest.(check bool) "metrics file carries the merged series" true
      (List.exists
         (fun line ->
           match String.split_on_char ' ' line with
           | [ name; value ] ->
             name = series ^ ".count" && float_of_string value = float_of_int count
           | _ -> false)
         (String.split_on_char '\n' data))

(* Shard routing, as the schema names an op's switch: an op at or below
   a switch's flows/ in the master tree goes to that switch's shard; a
   view's flow op, and every op that is not a master flow's, replicates
   everywhere. *)
let test_shard_routing () =
  let route path =
    Yanc.Cluster.dpid_of_op (Vfs.Op.Unlink { path = Vfs.Path.of_string_exn path })
  in
  let check path expected =
    Alcotest.(check (option int64)) path expected (route path)
  in
  check "/net/switches/sw1/flows/f" (Some 1L);
  check "/net/switches/sw1/flows/f/version" (Some 1L);
  check "/net/switches/sw12/flows" (Some 12L);
  check "/net/views/v/switches/sw1/flows/f" None;
  check "/net/switches/sw1/ports/port_1/peer" None;
  check "/net/switches/sw1" None;
  check "/net/switches/s1/flows/f" None;
  check "/yanc/cluster/shards/1" None

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_deterministic; prop_minimal_movement_leave;
      prop_minimal_movement_join; prop_replicas_owner_first;
      prop_balanced_cap; prop_balanced_deterministic;
      prop_balanced_movement_leave ]

let () =
  Alcotest.run "cluster"
    [ ("shard_map", qcheck_cases);
      ( "cluster",
        [ Alcotest.test_case "shard routing" `Quick test_shard_routing;
          Alcotest.test_case "boot ownership" `Quick test_boot_ownership;
          Alcotest.test_case "cross-node flow reaches owner hardware" `Quick
            test_cross_node_flow_reaches_owner_hardware;
          Alcotest.test_case "two nodes post into one spool" `Quick
            test_two_nodes_one_spool;
          Alcotest.test_case "kill one of two: takeover converges" `Quick
            test_kill_one_of_two_takeover;
          Alcotest.test_case "takeover deletes an unreplicated stray" `Quick
            test_takeover_deletes_unreplicated_stray;
          Alcotest.test_case "sync_subtree anti-entropy" `Quick
            test_sync_subtree_antientropy;
          Alcotest.test_case "failed lease write is counted" `Quick
            test_failed_lease_write_counted ] );
      ( "observability",
        [ Alcotest.test_case "one trace spans two rings" `Quick
            test_one_trace_two_rings;
          Alcotest.test_case "cross-node trace is deterministic" `Quick
            test_cross_node_trace_determinism;
          Alcotest.test_case "ring overflow accounting under a storm" `Quick
            test_ring_overflow_accounting_under_storm;
          Alcotest.test_case "cluster rollup matches a hand-merge" `Quick
            test_rollup_matches_hand_merge ] ) ]
