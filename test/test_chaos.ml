(* Chaos & fault-injection tests: the control plane must survive a
   misbehaving control channel (ISSUE 5 tentpole).

   - channel properties: an all-zero fault policy is exactly
     transparent, and no fault combination ever invents bytes;
   - backoff: deterministic from the seed, exponential with cap,
     jitter bounded and upward-only;
   - recovery: a hard disconnect is detected, the driver re-handshakes
     and resynchronizes the flow table against the file system (strays
     deleted, missing rules installed);
   - a driver that exhausts its retry budget goes [dead] and is
     reported as such through yancfs;
   - soak matrix: every profile in {!Chaos.profiles} × several seeds
     must reconverge with hardware ≡ file system. *)

module N = Netsim
module D = Driver
module Y = Yancfs
module OF = Openflow
module CC = N.Control_channel

let cred = Vfs.Cred.root

(* --- channel properties (satellite c) --------------------------------------- *)

let zero_stats =
  { CC.dropped = 0; duplicated = 0; reordered = 0; truncated = 0; delayed = 0 }

let prop_zero_faults_transparent =
  QCheck.Test.make ~name:"all-zero fault policy is byte-transparent" ~count:150
    QCheck.(pair small_int (small_list string))
    (fun (seed, msgs) ->
      let rx1, tx1 = CC.create () in
      let rx2, tx2 = CC.create () in
      CC.set_faults tx2
        (Some (CC.Faults.create ~policy:CC.Faults.default ~seed ()));
      List.iter (CC.send tx1) msgs;
      List.iter (CC.send tx2) msgs;
      CC.recv_all rx1 = CC.recv_all rx2
      && CC.bytes_sent tx1 = CC.bytes_sent tx2
      && CC.fault_stats tx2 = zero_stats)

let is_prefix ~of_:m c =
  String.length c <= String.length m && String.sub m 0 (String.length c) = c

let prop_faults_never_invent =
  QCheck.Test.make ~name:"faults never invent bytes" ~count:150
    QCheck.(pair small_int (small_list string))
    (fun (seed, msgs) ->
      let rx, tx = CC.create () in
      let policy =
        { CC.Faults.default with
          CC.Faults.drop = 0.2; duplicate = 0.4; reorder = 0.4; truncate = 0.3 }
      in
      CC.set_faults tx (Some (CC.Faults.create ~policy ~seed ()));
      List.iter (CC.send tx) msgs;
      let got = CC.recv_all rx in
      let stats = CC.fault_stats tx in
      List.for_all (fun c -> List.exists (fun m -> is_prefix ~of_:m c) msgs) got
      && List.length got <= List.length msgs + stats.CC.duplicated)

(* --- backoff (satellite d) --------------------------------------------------- *)

let schedule ~seed ~jitter n =
  let b =
    D.Backoff.create ~base:0.25 ~cap:4.0 ~jitter
      ~prng:(N.Prng.create ~seed) ()
  in
  List.init n (fun _ -> D.Backoff.next b)

let test_backoff_deterministic () =
  Alcotest.(check (list (float 1e-12)))
    "same seed, same schedule"
    (schedule ~seed:42 ~jitter:0.1 12)
    (schedule ~seed:42 ~jitter:0.1 12);
  Alcotest.(check bool) "different seed, different schedule" true
    (schedule ~seed:42 ~jitter:0.1 12 <> schedule ~seed:43 ~jitter:0.1 12)

let test_backoff_shape () =
  let b =
    D.Backoff.create ~base:0.25 ~cap:4.0 ~jitter:0.
      ~prng:(N.Prng.create ~seed:1) ()
  in
  Alcotest.(check (list (float 1e-9)))
    "no jitter: exact doubling, clamped at the cap"
    [ 0.25; 0.5; 1.0; 2.0; 4.0; 4.0; 4.0 ]
    (List.init 7 (fun _ -> D.Backoff.next b));
  Alcotest.(check int) "attempts counted" 7 (D.Backoff.attempts b);
  D.Backoff.reset b;
  Alcotest.(check (float 1e-9)) "reset restarts the schedule" 0.25
    (D.Backoff.next b)

let test_backoff_jitter_bounds () =
  let jitter = 0.25 in
  let b =
    D.Backoff.create ~base:0.25 ~cap:4.0 ~jitter
      ~prng:(N.Prng.create ~seed:9) ()
  in
  for i = 0 to 11 do
    let pure = min (0.25 *. (2. ** float_of_int (min i 30))) 4.0 in
    let d = D.Backoff.next b in
    if d < pure -. 1e-9 || d > (pure *. (1. +. jitter)) +. 1e-9 then
      Alcotest.failf "attempt %d: delay %.4f outside [%.4f, %.4f]" i d pure
        (pure *. (1. +. jitter))
  done

(* --- recovery scenarios ------------------------------------------------------ *)

let mk_flow ~tp_dst ~priority =
  { Y.Flowdir.default with
    Y.Flowdir.of_match = { OF.Of_match.any with OF.Of_match.tp_dst = Some tp_dst };
    actions = [ OF.Action.Output (OF.Action.Physical 1) ];
    priority }

let rig ?(tuning = Chaos.fast_tuning) ?(seed = 7) () =
  let built = N.Topo_gen.linear ~hosts_per_switch:1 1 in
  let net = built.N.Topo_gen.net in
  let ctl = Yanc.Controller.create ~tuning ~seed ~net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  let mgr = Yanc.Controller.manager ctl in
  let dpid = List.hd (D.Manager.attached mgr) in
  (ctl, mgr, dpid, Option.get (D.Manager.switch_name mgr ~dpid))

(* The rig's one switch, judged by the network fsck. *)
let fsck ctl = List.hd (Yanc.Controller.audit ctl)

let counters mgr dpid = Option.get (D.Manager.link_counters mgr ~dpid)

(* A hard outage: fs changes made while the channel is down must reach
   hardware through the reconnect + resync path, not be lost. *)
let test_disconnect_recovery () =
  let ctl, mgr, dpid, swname = rig () in
  let yfs = Yanc.Controller.yfs ctl in
  let ok =
    Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"keep"
      (mk_flow ~tp_dst:80 ~priority:50)
  in
  Alcotest.(check bool) "create keep" true (ok = Ok ());
  let ok =
    Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"doomed"
      (mk_flow ~tp_dst:443 ~priority:60)
  in
  Alcotest.(check bool) "create doomed" true (ok = Ok ());
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  Alcotest.(check int) "both flows on hardware" 2 (fsck ctl).hw_rules;
  Alcotest.(check (option string))
    "status file says connected" (Some "connected")
    (Y.Yanc_fs.switch_status yfs swname);
  (* kill the channel, then edit the fs while it is down: delete one
     installed flow, add a new one *)
  let _sw_end, ctl_end = Option.get (D.Manager.channel mgr ~dpid) in
  CC.disconnect ctl_end;
  Alcotest.(check bool) "delete doomed while down" true
    (Y.Yanc_fs.delete_flow yfs ~cred ~switch:swname "doomed" = Ok ());
  Alcotest.(check bool) "create fresh while down" true
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"fresh"
       (mk_flow ~tp_dst:8080 ~priority:70)
    = Ok ());
  let recovered =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:10. ctl (fun () ->
        D.Manager.switch_status mgr ~dpid = Some D.Driver_intf.Connected
        && (counters mgr dpid).D.Driver_intf.resyncs >= 1)
  in
  Alcotest.(check bool) "driver recovered" true recovered;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  let c = counters mgr dpid in
  Alcotest.(check bool) "disconnect counted" true (c.D.Driver_intf.disconnects >= 1);
  Alcotest.(check bool) "resync counted" true (c.D.Driver_intf.resyncs >= 1);
  (* the files hold keep and fresh, and hardware holds exactly them *)
  Alcotest.(check (list string)) "committed flows" [ "fresh"; "keep" ]
    (List.sort compare (Y.Yanc_fs.flow_names yfs ~cred swname));
  let report = fsck ctl in
  Alcotest.(check (triple bool int int)) "exactly the committed rules survive"
    (true, 0, 2)
    (Yanc.Audit.ok report, List.length report.invalid, report.hw_rules);
  Alcotest.(check (option string))
    "status file back to connected" (Some "connected")
    (Y.Yanc_fs.switch_status yfs swname)

(* A rule put straight into the switch table, behind the controller's
   back; by default one the file system never committed (a stray). *)
let put_rule ?(tp_dst = 6666) ?(priority = 999) ?(out = 1) ctl dpid =
  let sw = Option.get (N.Network.switch (Yanc.Controller.net ctl) dpid) in
  ignore
    (N.Sim_switch.flow_add sw ~now:(Yanc.Controller.now ctl)
       ~of_match:{ OF.Of_match.any with OF.Of_match.tp_dst = Some tp_dst }
       ~priority
       ~actions:[ OF.Action.Output (OF.Action.Physical out) ]
       ())

(* Resync must also repair silent divergence: rules that exist only on
   the switch (installed behind the controller's back) are strays and
   get DELETE_STRICTed. *)
let test_resync_deletes_strays () =
  let ctl, mgr, dpid, swname = rig () in
  let yfs = Yanc.Controller.yfs ctl in
  ignore
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"legit"
       (mk_flow ~tp_dst:80 ~priority:50));
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  (* a rule the file system never committed appears on the switch *)
  put_rule ctl dpid;
  Alcotest.(check int) "stray present" 1 (List.length (fsck ctl).hw_only);
  let _sw_end, ctl_end = Option.get (D.Manager.channel mgr ~dpid) in
  CC.disconnect ctl_end;
  let recovered =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:10. ctl (fun () ->
        D.Manager.switch_status mgr ~dpid = Some D.Driver_intf.Connected
        && (counters mgr dpid).D.Driver_intf.resyncs >= 1)
  in
  Alcotest.(check bool) "driver recovered" true recovered;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  Alcotest.(check (pair bool int)) "stray deleted by resync" (true, 1)
    (Yanc.Audit.ok (fsck ctl), (fsck ctl).hw_rules);
  Alcotest.(check bool) "stray delete counted" true
    ((counters mgr dpid).D.Driver_intf.resync_deletes >= 1)

(* A modify the switch never got (a dropped flow_mod) leaves the old
   actions under the same identity: the resync compares the reported
   config, not just the identity, and re-adds the committed one. *)
let test_resync_repairs_stale_actions () =
  let ctl, mgr, dpid, swname = rig () in
  let yfs = Yanc.Controller.yfs ctl in
  ignore
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"legit"
       (mk_flow ~tp_dst:80 ~priority:50));
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  put_rule ~tp_dst:80 ~priority:50 ~out:7 ctl dpid;
  Alcotest.(check (pair int int)) "stale actions on hardware" (1, 1)
    (List.length (fsck ctl).fs_only, List.length (fsck ctl).hw_only);
  let _sw_end, ctl_end = Option.get (D.Manager.channel mgr ~dpid) in
  CC.disconnect ctl_end;
  let recovered =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:10. ctl (fun () ->
        D.Manager.switch_status mgr ~dpid = Some D.Driver_intf.Connected
        && (counters mgr dpid).D.Driver_intf.resyncs >= 1)
  in
  Alcotest.(check bool) "driver recovered" true recovered;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  Alcotest.(check (pair bool int)) "committed actions back" (true, 1)
    (Yanc.Audit.ok (fsck ctl), (fsck ctl).hw_rules)

(* A live upgrade is a fresh driver: its first handshake reconciles the
   switch's own table, so a stray goes exactly as after an outage. *)
let test_upgrade_deletes_stray () =
  let ctl, mgr, dpid, swname = rig () in
  let yfs = Yanc.Controller.yfs ctl in
  ignore
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"legit"
       (mk_flow ~tp_dst:80 ~priority:50));
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  put_rule ctl dpid;
  Alcotest.(check int) "stray present" 1 (List.length (fsck ctl).hw_only);
  D.Manager.upgrade mgr ~dpid ~version:D.Manager.V13;
  Yanc.Controller.run_for ~tick:0.02 ctl 2.0;
  Alcotest.(check (option string)) "upgraded driver connected"
    (Some "connected") (Y.Yanc_fs.switch_status yfs swname);
  let report = fsck ctl in
  Alcotest.(check (triple bool int int)) "stray deleted, legit kept"
    (true, 0, 1)
    (Yanc.Audit.ok report, List.length report.hw_only, report.hw_rules)

(* A flow committed while the channel is down reaches the switch as one
   ADD, made by the resync, and without the buffer reference it was
   committed with: the buffer pool did not survive the outage. *)
let test_outage_commit_installed_once () =
  let ctl, mgr, dpid, swname = rig () in
  let yfs = Yanc.Controller.yfs ctl in
  let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
  let value n = Telemetry.Registry.value (Telemetry.Registry.counter reg n) in
  let installs () = value "driver.commit.adds" + value "driver.resync_installs" in
  let _sw_end, ctl_end = Option.get (D.Manager.channel mgr ~dpid) in
  let framing = OF.Framing.create () in
  CC.set_tap ctl_end (OF.Framing.push framing);
  CC.disconnect ctl_end;
  let installs0 = installs () in
  Alcotest.(check bool) "commit while down" true
    (Y.Yanc_fs.create_flow yfs ~cred ~switch:swname ~name:"outage"
       { (mk_flow ~tp_dst:8080 ~priority:70) with Y.Flowdir.buffer_id = Some 42l }
    = Ok ());
  let recovered =
    Yanc.Controller.run_until ~tick:0.02 ~timeout:10. ctl (fun () ->
        D.Manager.switch_status mgr ~dpid = Some D.Driver_intf.Connected
        && (counters mgr dpid).D.Driver_intf.resyncs >= 1)
  in
  Alcotest.(check bool) "driver recovered" true recovered;
  Yanc.Controller.run_for ~tick:0.02 ctl 0.3;
  Alcotest.(check int) "one install" 1 (installs () - installs0);
  let adds =
    List.filter_map
      (fun raw ->
        match OF.Dialect.decode OF.Dialect.V10 raw with
        | Ok (_, OF.Msg.Flow_mod ({ command = OF.Msg.Add; _ } as fm)) ->
          Some fm.buffer_id
        | Ok _ | Error _ -> None)
      (OF.Framing.pop_all framing)
  in
  Alcotest.(check (list (option int32))) "one ADD, no buffer" [ None ] adds;
  let report = fsck ctl in
  Alcotest.(check (pair bool int)) "on hardware" (true, 1)
    (Yanc.Audit.ok report, report.hw_rules)

(* A channel that can never be re-established exhausts the retry budget
   and the driver surfaces [dead] — yancctl exits nonzero on this. *)
let test_dead_after_retry_budget () =
  let tuning = { Chaos.fast_tuning with D.Driver_intf.max_retries = 3 } in
  let ctl, mgr, dpid, swname = rig ~tuning () in
  let yfs = Yanc.Controller.yfs ctl in
  let _sw_end, ctl_end = Option.get (D.Manager.channel mgr ~dpid) in
  (* the gate is read from the disconnecting endpoint's policy: make
     reconnection impossible, then sever *)
  CC.set_faults ctl_end
    (Some
       (CC.Faults.create
          ~policy:{ CC.Faults.default with CC.Faults.reconnect_after = 1e9 }
          ~seed:1 ()));
  CC.disconnect ctl_end;
  let died =
    Yanc.Controller.run_until ~tick:0.05 ~timeout:10. ctl (fun () ->
        D.Manager.switch_status mgr ~dpid = Some D.Driver_intf.Dead)
  in
  Alcotest.(check bool) "driver declared dead" true died;
  Alcotest.(check bool) "manager reports a dead switch" true
    (D.Manager.any_dead mgr);
  Alcotest.(check (option string)) "status file says dead" (Some "dead")
    (Y.Yanc_fs.switch_status yfs swname);
  Alcotest.(check bool) "retries were spent" true
    ((counters mgr dpid).D.Driver_intf.retries >= 3)

(* --- soak matrix (satellite d) ----------------------------------------------- *)

let soak_seeds = [ 11; 23; 37 ]

(* Seeds that once diverged, each with the profile it failed under.
   drop seed=175: a dropped modify left a rule's old actions under its
   identity, which an identity-only resync took for in sync. *)
let regression_seeds = [ (Chaos.drop_profile, 175) ]

let soak_case profile seed =
  Alcotest.test_case
    (Printf.sprintf "soak %s seed=%d" profile.Chaos.pname seed)
    `Quick
    (fun () ->
      let o = Chaos.run ~seed profile in
      if o.Chaos.resyncs < 1 then
        Alcotest.failf "chaos seed=%d profile=%s: no resync happened" seed
          profile.Chaos.pname;
      if o.Chaos.keepalives < 1 then
        Alcotest.failf "chaos seed=%d profile=%s: no keepalives sent" seed
          profile.Chaos.pname;
      if profile.Chaos.disconnect_at <> [] && o.Chaos.disconnects < 1 then
        Alcotest.failf "chaos seed=%d profile=%s: scripted disconnects missed"
          seed profile.Chaos.pname;
      if profile.Chaos.policy.CC.Faults.drop > 0. && o.Chaos.faults_injected = 0
      then
        Alcotest.failf "chaos seed=%d profile=%s: policy injected nothing" seed
          profile.Chaos.pname)

(* Policy soak (ISSUE 10 satellite): the policy engine recompiles and
   re-installs while the channels misbehave — the first text installs
   before the turbulence, the rewrite lands mid-workload, and
   {!Chaos.run} then asserts hardware ≡ file system ≡ compiled policy
   after recovery. One fixed seed per profile keeps the matrix fast. *)
let soak_policy_texts =
  ( "filter dl_type = 0x0806 ; controller\n\
     | filter dl_type = 0x0800 && tp_dst = 80 ; fwd(1)\n\
     | filter dl_type = 0x0800 && tp_dst = 53 ; fwd(2)",
    "filter dl_type = 0x0806 ; controller\n\
     | filter dl_type = 0x0800 && tp_dst = 443 ; fwd(2)\n\
     | filter dl_type = 0x0800 && tp_dst = 53 ; fwd(2)\n\
     | filter dl_type = 0x0800 && nw_dst = 10.0.0.0/8 ; dl_src := \
     02:00:00:00:00:01 ; fwd(1)" )

let soak_policy_case profile =
  let seed = 13 in
  Alcotest.test_case
    (Printf.sprintf "soak+policy %s seed=%d" profile.Chaos.pname seed)
    `Quick
    (fun () ->
      let o = Chaos.run ~seed ~policy:soak_policy_texts profile in
      if o.Chaos.resyncs < 1 then
        Alcotest.failf "chaos seed=%d profile=%s: no resync happened" seed
          profile.Chaos.pname)

(* Determinism of the harness itself: the same (seed, profile) must
   yield the same counters — this is what makes a printed seed a
   reproduction recipe. *)
let test_chaos_reproducible () =
  let a = Chaos.run ~seed:11 Chaos.drop_profile in
  let b = Chaos.run ~seed:11 Chaos.drop_profile in
  Alcotest.(check bool) "same seed, same outcome" true (a = b)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_zero_faults_transparent; prop_faults_never_invent ]

let () =
  Alcotest.run "chaos"
    [ ("channel-properties", qcheck_cases);
      ( "backoff",
        [ Alcotest.test_case "deterministic from seed" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "exponential shape with cap" `Quick
            test_backoff_shape;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds
        ] );
      ( "recovery",
        [ Alcotest.test_case "disconnect recovery + resync" `Quick
            test_disconnect_recovery;
          Alcotest.test_case "resync deletes strays" `Quick
            test_resync_deletes_strays;
          Alcotest.test_case "resync repairs stale actions" `Quick
            test_resync_repairs_stale_actions;
          Alcotest.test_case "live upgrade deletes a stray" `Quick
            test_upgrade_deletes_stray;
          Alcotest.test_case "outage commit installed once" `Quick
            test_outage_commit_installed_once;
          Alcotest.test_case "dead after retry budget" `Quick
            test_dead_after_retry_budget
        ] );
      ( "soak",
        Alcotest.test_case "reproducible outcome" `Quick test_chaos_reproducible
        :: List.concat_map
             (fun p -> List.map (soak_case p) soak_seeds)
             Chaos.profiles
        @ List.map (fun (p, seed) -> soak_case p seed) regression_seeds
        @ List.map soak_policy_case Chaos.profiles ) ]
